package experiments

import (
	"fmt"
	"io"
	"os"
	"slices"

	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/fault"
	"github.com/rdcn-net/tdtcp/internal/invariant"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/stats"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// harness is the one run path under Run and RunWorkload: everything about
// executing a scenario that does not depend on which flows run or which
// result is assembled (DESIGN.md §10 "Run harness" lists what it owns). An
// entry point calls newHarness, builds its flows and hands each to addFlow,
// calls start, arms its traffic, calls run, assembles its result and calls
// finish.
//
// The order of those steps is load-bearing: arming a timer consumes a
// scheduling sequence number, and same-instant events fire in sequence
// order, so moving a step that arms timers (rdcn.New, flow construction,
// net.Start, the injector's Start) changes trace bytes.
type harness struct {
	cfg    *RunConfig
	what   string // names the run in errors: "<variant> on <scenario>"
	flight *trace.Flight
	tracer *trace.Tracer // cfg.Tracer plus the flight recorder; what every layer is wired with
	engine *sim.ShardedLoop
	loop   *sim.Loop // the engine's control lane
	net    *rdcn.Network
	inj    *fault.Injector    // nil unless cfg.Fault is enabled
	chk    *invariant.Checker // nil unless cfg.Invariants
	racks  int
	// pools holds one tcp.Pool per rack: the endpoint living on rack r draws
	// its retransmission-queue storage from pools[r], so no two lanes ever
	// share a free list (a lane recycles its own queue entries; Conn.Release
	// runs at control instants, with the lanes parked).
	pools []*tcp.Pool
	// rtts and lag are the registry's per-TDN RTT and deadman-lag histograms
	// on a metered run, resolved by the first addFlow for every flow after.
	rtts []*trace.Histogram
	lag  *trace.Histogram

	measureStart, end sim.Time
	flows             []*Flow
	droppedBytes      int64 // delivered by the flows dropFlow has taken out of flows
	baseline          int64 // bytes delivered when the measurement window opened
}

// newHarness builds the run's engine and network from the fields RunConfig
// and WorkloadConfig share (RunWorkload copies its own into a RunConfig).
// hostsPerRack sizes the network.
func newHarness(cfg *RunConfig, what string, hostsPerRack int) (*harness, error) {
	h := &harness{cfg: cfg, what: what, flight: cfg.Flight, racks: cfg.Scenario.Racks}
	if h.flight == nil && !cfg.DisableFlight {
		h.flight = trace.NewFlight(trace.DefaultFlightLen, trace.DefaultFlightCats)
	}
	// JSONL output is byte-identical with or without the recorder attached.
	h.tracer = cfg.Tracer.WithFlight(h.flight)
	defer h.dumpOnPanic()
	if h.racks == 0 {
		h.racks = 2
	}
	// Every run executes on the sharded engine: one lane per rack plus the
	// control lane, regardless of Shards. Shards only picks the worker
	// count, which the engine guarantees is unobservable.
	h.engine = sim.NewSharded(cfg.Seed, h.racks, cfg.Shards)
	h.loop = h.engine.Control()
	if cfg.Meter != nil {
		// The meter is all-atomic, so every lane can feed it: attach to the
		// control loop and each rack lane for true whole-run event counts.
		cfg.Meter.Attach(h.loop)
		for r := 0; r < h.racks; r++ {
			cfg.Meter.Attach(h.engine.RackLoop(r))
		}
	}
	if cfg.Stop != nil {
		h.engine.SetStopCheck(cfg.StopEvery, cfg.Stop)
	}

	ncfg := rdcn.DefaultConfig()
	ncfg.Racks = h.racks
	ncfg.HostsPerRack = hostsPerRack
	ncfg.TDNs = cfg.Scenario.TDNs
	ncfg.Schedule = cfg.Scenario.Schedule
	ncfg.VOQCap = cfg.Scenario.VOQCap
	ncfg.MarkThresh = cfg.MarkThresh
	if cfg.Notify != nil {
		ncfg.Notify = *cfg.Notify
	}
	if cfg.Variant == ReTCPDyn {
		ncfg.PreChange = &rdcn.PreChange{TDN: 1, Lead: 150 * sim.Microsecond, Cap: 50}
	}
	ncfg.Cluster = h.engine
	if cfg.tweakNet != nil {
		cfg.tweakNet(&ncfg)
	}
	net, err := rdcn.New(h.loop, ncfg)
	if err != nil {
		return nil, err
	}
	h.net = net
	// Engine first: it creates the per-rack tracer forks that Network's
	// SetTracer then hands to each rack's components.
	h.engine.SetTracer(h.tracer)
	net.SetTracer(h.tracer)
	if m := cfg.Metrics; m != nil {
		// Histogram handles resolve here, at setup; the hot-path Record is
		// lock-free and allocation-free.
		net.NotifyLat = m.Hist("rdcn.notify_lat_ns")
		for _, rack := range net.Racks {
			occ := m.Hist(fmt.Sprintf("voq.r%d.occ_pkts", rack.ID))
			for _, v := range rack.VOQs() {
				v.OccHist = occ
			}
		}
	}

	if cfg.Fault != nil && cfg.Fault.Enabled() {
		h.inj = fault.New(h.loop, *cfg.Fault, cfg.FaultSeed)
		h.inj.SetTracer(h.tracer)
		h.inj.SetMetrics(cfg.Metrics)
		h.inj.Install(net)
		if cfg.Variant == TDTCP && cfg.Flow.TDTCPOpts.DeadmanHorizon == 0 {
			cfg.Flow.TDTCPOpts.DeadmanHorizon = defaultDeadmanHorizon(ncfg.Schedule)
		}
	}
	if cfg.Invariants {
		h.chk = invariant.New(h.loop)
		h.chk.SetTracer(h.tracer)
		h.chk.SetMetrics(cfg.Metrics)
		h.chk.SetFlight(h.flight, os.Stderr)
		h.chk.WatchNetwork(net)
	}

	h.pools = make([]*tcp.Pool, h.racks)
	for r := range h.pools {
		h.pools[r] = new(tcp.Pool)
	}

	week := cfg.Scenario.Schedule.Week()
	h.measureStart = sim.Time(sim.Dur(cfg.WarmupWeeks) * week)
	h.end = h.measureStart.Add(sim.Dur(cfg.MeasureWeeks) * week)
	return h, nil
}

// dumpOnPanic, deferred by newHarness and by each entry point, writes the
// flight recorder to stderr before a panic unwinds further, so a post-mortem
// always has the last events in hand.
func (h *harness) dumpOnPanic() {
	if r := recover(); r != nil {
		dumpFlight(os.Stderr, h.flight, fmt.Sprintf("panic: %v", r))
		panic(r)
	}
}

// addFlow registers a flow the entry point built. Its sender emits trace
// events from its rack's lane, so it records through that lane's tracer fork
// (Rack.Tracer), never the shared parent; every connection (both directions,
// every MPTCP subflow) gets the registry's per-TDN RTT and deadman-lag
// histograms, resolved once per run and recorded into lock-free, and is
// watched by the invariant checker on checked runs.
func (h *harness) addFlow(f *Flow, srcRack, id int) {
	f.SetTracer(h.net.Racks[srcRack].Tracer(), id)
	conns := []*tcp.Conn{f.Snd, f.Rcv}
	if f.MSnd != nil {
		conns = slices.Concat(f.MSnd.Subflows(), f.MRcv.Subflows())
	}
	if m := h.cfg.Metrics; m != nil {
		if h.rtts == nil {
			h.rtts = make([]*trace.Histogram, len(h.cfg.Scenario.TDNs))
			for k := range h.rtts {
				h.rtts[k] = m.Hist(fmt.Sprintf("tcp.rtt_tdn%d_ns", k))
			}
			h.lag = m.Hist("tdtcp.deadman_lag_ns")
		}
		for _, c := range conns {
			c.RTTHists = h.rtts
			if p, ok := c.Config().Policy.(*core.TDTCP); ok {
				p.DeadmanLag = h.lag
			}
		}
	}
	if h.chk != nil {
		for _, c := range conns {
			h.chk.WatchConn(c, id)
		}
	}
	h.flows = append(h.flows, f)
}

// dropFlow forgets a flow addFlow registered and that will deliver nothing
// more; what it delivered stays in the run's total.
func (h *harness) dropFlow(f *Flow) {
	if i := slices.Index(h.flows, f); i >= 0 {
		h.droppedBytes += f.Delivered()
		h.flows = slices.Delete(h.flows, i, i+1)
	}
}

// delivered sums the bytes every flow registered so far has handed its
// application.
func (h *harness) delivered() int64 {
	sum := h.droppedBytes
	for _, f := range h.flows {
		sum += f.Delivered()
	}
	return sum
}

// goodputGbps is the aggregate delivered throughput over the measurement
// window; call after run.
func (h *harness) goodputGbps() float64 {
	return stats.ThroughputGbps(h.delivered()-h.baseline, h.end.Sub(h.measureStart))
}

// start arms the control plane and the fault injector up to the horizon.
// Call after the flows exist and before any of them is started.
func (h *harness) start() {
	h.net.Start(h.end)
	if h.inj != nil {
		h.inj.Start(h.end)
	}
}

// run executes the warm-up leg, takes the delivered-bytes baseline and calls
// atMeasureStart (samplers), then executes the measurement leg. Cancellation
// is surfaced only between legs: no trace event is emitted after the last
// executed simulation event, so the cancelled run's trace stays a
// byte-identical prefix of the full run's.
func (h *harness) run(atMeasureStart func()) error {
	if err := h.leg(h.measureStart); err != nil {
		return err
	}
	h.baseline = h.delivered()
	atMeasureStart()
	return h.leg(h.end)
}

func (h *harness) leg(until sim.Time) error {
	h.engine.RunUntil(until)
	if h.engine.Stopped() {
		return fmt.Errorf("experiments: %s after %d events at %v: %w",
			h.what, h.engine.Fired(), h.engine.Now(), ErrCancelled)
	}
	return nil
}

// finish audits frame conservation at the horizon, dumping every flight
// recorder when it fails, and on success returns the ledger and records the
// engine metrics both entry points report.
func (h *harness) finish() (sent, delivered, misrouted uint64, err error) {
	if err := h.net.CheckConservation(); err != nil {
		reason := fmt.Sprintf("conservation failure: %v", err)
		dumpFlight(os.Stderr, h.flight, reason)
		// The rack lanes keep private rings alongside the shared one.
		for r := 0; r < h.racks; r++ {
			dumpFlight(os.Stderr, h.engine.RackTracer(r).FlightRecorder(),
				fmt.Sprintf("%s, rack %d lane", reason, r))
		}
		return 0, 0, 0, err
	}
	if m := h.cfg.Metrics; m != nil {
		m.Add("sim.events_fired", int64(h.engine.Fired()))
		m.Set("sim.virtual_seconds", float64(h.engine.Now())/1e9)
	}
	sent, delivered, misrouted = h.net.FrameLedger()
	return sent, delivered, misrouted, nil
}

// dumpFlight writes the flight recorder's ring as JSONL behind a banner line
// naming the reason. Used on the failure paths (conservation failure, panic;
// the invariant checker dumps through its own hook).
func dumpFlight(w io.Writer, f *trace.Flight, reason string) {
	if f == nil || f.Len() == 0 {
		return
	}
	fmt.Fprintf(w, "== flight recorder dump (%s): last %d events ==\n", reason, f.Len())
	_ = f.Dump(w)
}
