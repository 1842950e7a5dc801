package experiments

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"

	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/fault"
	"github.com/rdcn-net/tdtcp/internal/invariant"
	"github.com/rdcn-net/tdtcp/internal/netem"
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
	loop   *sim.Loop
	net    *rdcn.Network
	inj    *fault.Injector    // nil unless cfg.Fault is enabled
	chk    *invariant.Checker // nil unless cfg.Invariants
	racks  int
	// mem is the working memory the run took from the spare list; loop and
	// pool are its loop and tcp.Pool (every endpoint draws its
	// retransmission-queue entries from it) and the network its frame pool.
	mem  *runMem
	pool *tcp.Pool
	// rtts and lag are the registry's per-TDN RTT and deadman-lag histograms
	// on a metered run, resolved by the first addFlow for every flow after.
	rtts []*trace.Histogram
	lag  *trace.Histogram

	measureStart, end sim.Time
	flows             []*Flow
	droppedBytes      int64 // delivered by the flows dropFlow has taken out of flows
	baseline          int64 // bytes delivered when the measurement window opened
}

// invariantSweepEvery is the cadence of a checked run's invariant sweeps: one
// after every eighth event. A sweep recounts every watched connection's
// retransmission queue, so sweeping after each event doubles the cost of the
// run it checks (6.7 ms against 3.2 for a 4-flow faulted hybrid), and what a
// sweep looks for does not heal — a broken counter stays broken, which is why
// the checker latches a failed site — so a sparser sweep reports the same
// violation at most seven events later, with the guilty event still in the
// flight snapshot.
const invariantSweepEvery = 8

// newHarness builds the run's loop and network from the fields RunConfig and
// WorkloadConfig share (RunWorkload copies its own into a RunConfig).
// hostsPerRack sizes the network.
func newHarness(cfg *RunConfig, what string, hostsPerRack int) (*harness, error) {
	if cfg.Shards != 0 && cfg.Shards != 1 {
		return nil, fmt.Errorf("experiments: Shards = %d: every run executes on one loop; leave Shards at 0 or 1", cfg.Shards)
	}
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
	// The same wiring the facade's NewNetwork uses: one loop, every rack on it.
	h.mem = takeRunMem(cfg.Seed)
	h.loop, h.pool = h.mem.loop, h.mem.segs
	if cfg.Meter != nil {
		cfg.Meter.Attach(h.loop)
	}
	if cfg.Stop != nil {
		h.loop.SetStopCheck(cfg.StopEvery, cfg.Stop)
	}

	ncfg := rdcn.DefaultConfig()
	ncfg.Racks = h.racks
	ncfg.HostsPerRack = hostsPerRack
	ncfg.TDNs = cfg.Scenario.TDNs
	ncfg.Schedule = cfg.Scenario.Schedule
	ncfg.VOQCap = cfg.Scenario.VOQCap
	ncfg.MarkThresh = cfg.MarkThresh
	ncfg.FramePool = h.mem.frames
	if cfg.Notify != nil {
		ncfg.Notify = *cfg.Notify
	}
	if cfg.Variant == ReTCPDyn {
		ncfg.PreChange = &rdcn.PreChange{TDN: 1, Lead: 150 * sim.Microsecond, Cap: 50}
	}
	if cfg.tweakNet != nil {
		cfg.tweakNet(&ncfg)
	}
	net, err := rdcn.New(h.loop, ncfg)
	if err != nil {
		return nil, err
	}
	h.net = net
	h.loop.SetTracer(h.tracer)
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
		h.chk.Every = invariantSweepEvery
		h.chk.SetTracer(h.tracer)
		h.chk.SetMetrics(cfg.Metrics)
		h.chk.SetFlight(h.flight, os.Stderr)
		h.chk.WatchNetwork(net)
	}

	week := cfg.Scenario.Schedule.Week()
	h.measureStart = sim.Time(sim.Dur(cfg.WarmupWeeks) * week)
	h.end = h.measureStart.Add(sim.Dur(cfg.MeasureWeeks) * week)
	return h, nil
}

// runMem is the working memory a run grows and hands on to the next: the
// event loop's heap, slab and random source, the network's frame-buffer pool
// and the tcp.Pool of retransmission-queue entries. Nothing a run returns
// points into it, so once a run has assembled its result, its memory can serve
// another. A run that fails, is cancelled or panics drops its memory instead.
type runMem struct {
	loop   *sim.Loop
	frames *netem.BufPool
	segs   *tcp.Pool
}

// spareMem is the list of memory finished runs handed back: a LIFO under a
// mutex, holding at most GOMAXPROCS entries, each the high-water mark of the
// runs it served. Not a sync.Pool: reuse then follows the order of the calls
// on a goroutine, not the collector's timing. Reuse changes no event either
// way; buffer and slot identity never reach a trace.
var spareMem struct {
	mu   sync.Mutex
	mems []*runMem
}

// takeRunMem returns the most recently handed-back memory, its loop reset to
// seed, or fresh memory when none is spare.
func takeRunMem(seed int64) *runMem {
	spareMem.mu.Lock()
	var m *runMem
	if n := len(spareMem.mems); n > 0 {
		m = spareMem.mems[n-1]
		spareMem.mems[n-1] = nil
		spareMem.mems = spareMem.mems[:n-1]
	}
	spareMem.mu.Unlock()
	if m == nil {
		return &runMem{loop: sim.NewLoop(seed), frames: new(netem.BufPool), segs: new(tcp.Pool)}
	}
	m.loop.Reset(seed)
	return m
}

// release hands the run's memory to the next run. Call it last, once the
// result is assembled and nothing reads the loop, the network or the flows
// any more. The loop is reset at once, so a spare holds no callback of the
// finished run and with it none of its network.
func (h *harness) release() {
	m := h.mem
	h.mem = nil
	m.loop.Reset(0)
	m.segs.Reset()
	spareMem.mu.Lock()
	if len(spareMem.mems) < runtime.GOMAXPROCS(0) {
		spareMem.mems = append(spareMem.mems, m)
	}
	spareMem.mu.Unlock()
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

// addFlow registers a flow the entry point built. Its sender records through
// the run's tracer; every connection (both directions, every MPTCP subflow)
// gets the registry's per-TDN RTT and deadman-lag histograms, resolved once per
// run and recorded into lock-free, and is watched by the invariant checker on
// checked runs.
func (h *harness) addFlow(f *Flow, id int) {
	f.SetTracer(h.tracer, id)
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
	h.loop.RunUntil(until)
	if h.loop.Stopped() {
		return fmt.Errorf("experiments: %s after %d events at %v: %w",
			h.what, h.loop.Fired(), h.loop.Now(), ErrCancelled)
	}
	return nil
}

// byteLedger is the stream half of the horizon audit, summed over every flow
// the run started, open ones included: the bytes the senders had
// acknowledged, the FINs among them, the bytes the receivers delivered in
// order, and the bytes the applications wrote (negative when the flows
// stream without end).
type byteLedger struct {
	acked, delivered, written int64
	fins                      int
}

// check holds acked <= delivered <= written. A FIN's segment has length 1, so
// the senders' acked count holds each acknowledged FIN's sequence number,
// which no receiver delivers; it is taken out once.
func (l byteLedger) check() error {
	data := l.acked - int64(l.fins)
	if data > l.delivered || l.written >= 0 && l.delivered > l.written {
		return fmt.Errorf("byte ledger: %d bytes acked (and %d FINs), %d delivered, %d written", data, l.fins, l.delivered, l.written)
	}
	return nil
}

// finish audits frame conservation and the byte ledger at the horizon,
// dumping the flight recorder when either fails, and on success returns the
// frame ledger and records the loop metrics both entry points report.
func (h *harness) finish(ledger byteLedger) (sent, delivered, misrouted uint64, err error) {
	if err := h.net.CheckConservation(); err != nil {
		dumpFlight(os.Stderr, h.flight, fmt.Sprintf("conservation failure: %v", err))
		return 0, 0, 0, err
	}
	if err := ledger.check(); err != nil {
		dumpFlight(os.Stderr, h.flight, err.Error())
		return 0, 0, 0, err
	}
	if m := h.cfg.Metrics; m != nil {
		m.Add("sim.events_fired", int64(h.loop.Fired()))
		m.Set("sim.virtual_seconds", float64(h.loop.Now())/1e9)
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
