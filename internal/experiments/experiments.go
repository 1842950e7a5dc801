package experiments

import (
	"errors"
	"fmt"

	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/fault"
	"github.com/rdcn-net/tdtcp/internal/invariant"
	"github.com/rdcn-net/tdtcp/internal/obs"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/stats"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
	"github.com/rdcn-net/tdtcp/internal/workload"
)

// Scenario selects the network conditions of an experiment (§5.2's three
// settings, or a rotor-style multi-rack fabric).
type Scenario struct {
	Name     string
	TDNs     []rdcn.TDNParams
	Schedule *rdcn.Schedule
	VOQCap   int
	// Racks is the ToR count (0 or 2 = the paper's two-rack testbed; more
	// racks form the rotor fabric of MultiRack).
	Racks int
}

// Hybrid is the paper's main setting: TDN 0 = 10 Gbps / ~100 µs RTT packet
// network, TDN 1 = 100 Gbps / ~40 µs RTT optical network (Figs. 2, 7, 10,
// 11, 13).
func Hybrid() Scenario {
	return Scenario{
		Name: "hybrid",
		TDNs: []rdcn.TDNParams{
			{Rate: 10 * sim.Gbps, Delay: 49 * sim.Microsecond},
			{Rate: 100 * sim.Gbps, Delay: 19 * sim.Microsecond},
		},
		Schedule: rdcn.HybridWeek(6, 180*sim.Microsecond, 20*sim.Microsecond),
		VOQCap:   16,
	}
}

// MultiRack scales the hybrid setting to an n-rack rotor RDCN: TDN 0 keeps
// the hybrid packet-network parameters (fair-shared across each rack's n-1
// VOQs), and each of the NumMatchings optical TDNs runs at the hybrid optical
// parameters during its matching's day. Day/night durations and the 6:1
// packet:optical ratio match the paper's schedule.
func MultiRack(n int) Scenario {
	h := Hybrid()
	return Scenario{
		Name:     fmt.Sprintf("rotor-%d", n),
		TDNs:     rdcn.RotorTDNs(n, h.TDNs[0], h.TDNs[1]),
		Schedule: rdcn.RotorWeek(n, 6, 180*sim.Microsecond, 20*sim.Microsecond),
		VOQCap:   h.VOQCap,
		Racks:    n,
	}
}

// BandwidthOnly keeps both TDNs at the same latency and varies only the
// rate (Fig. 8).
func BandwidthOnly() Scenario {
	s := Hybrid()
	s.Name = "bw-only"
	s.TDNs[1].Delay = s.TDNs[0].Delay
	return s
}

// LatencyOnly fixes the rate on both TDNs and varies only the latency:
// packet RTT 20 µs, optical RTT 10 µs (Figs. 9 and 14).
func LatencyOnly(rate sim.Rate) Scenario {
	s := Hybrid()
	s.Name = fmt.Sprintf("lat-only-%s", rate)
	s.TDNs[0] = rdcn.TDNParams{Rate: rate, Delay: 9 * sim.Microsecond}
	s.TDNs[1] = rdcn.TDNParams{Rate: rate, Delay: 4 * sim.Microsecond}
	return s
}

// RunConfig fully specifies one experiment run.
type RunConfig struct {
	Variant  Variant
	Scenario Scenario
	// Flows is the number of host pairs (default 16, §5.1).
	Flows int
	// WarmupWeeks are excluded from measurement (default 3); MeasureWeeks
	// is the measurement window (default 10).
	WarmupWeeks, MeasureWeeks int
	Seed                      int64
	// Shards is a refused stub that benchmark/ still sets to 1; it goes with
	// ROADMAP item 2's benchmark change. 0 and 1 mean nothing; any other
	// value is an error.
	Shards int
	// Notify is the TDN-change notification profile (default optimized).
	Notify *rdcn.NotifyProfile
	// SampleEvery is the series sampling cadence (default 5 µs).
	SampleEvery sim.Dur
	// MarkThresh is the ECN marking threshold; defaults to 5 packets when
	// the flows run a congestion control that needs ECN (DCTCP, or a DCTCP
	// TDN of PerTDNCC), otherwise 0.
	MarkThresh int
	Flow       FlowOptions

	// Tracer, when non-nil, is wired through every layer of the run: the
	// event loop (CatSim), sender connections and their CC instances
	// (CatTCP/CatCC/CatTDN), the rack VOQs (CatVOQ) and the RDCN control
	// plane (CatRDCN). With the same Seed, two traced runs produce
	// byte-identical event streams.
	Tracer *trace.Tracer
	// Metrics, when non-nil, is populated with run-level counters and
	// gauges before Run returns (see the "Observability" section of
	// DESIGN.md for the key taxonomy), plus the run's zero-allocation
	// histograms: per-TDN RTT ("tcp.rtt_tdn<k>_ns"), per-rack VOQ occupancy
	// ("voq.r<k>.occ_pkts"), epoch-switch latency ("rdcn.notify_lat_ns"),
	// and deadman engagement lag ("tdtcp.deadman_lag_ns").
	Metrics *trace.Registry

	// Flight, when non-nil, attaches the given flight recorder to the run's
	// tracer. When nil (and DisableFlight is unset) Run creates one with the
	// trace-package defaults, so the most recent events are always in hand
	// even with JSONL tracing off. The ring is dumped to stderr when an
	// invariant check fails, the conservation ledger fails, or the run
	// panics; Result.Flight exposes it afterwards.
	Flight *trace.Flight
	// DisableFlight turns the always-on flight recorder off entirely (the
	// benchmark A/B baseline; there is no other reason to disable it).
	DisableFlight bool
	// Meter, when non-nil, taps the run for live progress (events/sec,
	// sim/wall ratio): attach an obs.Reporter to stream it. Pure observer —
	// results and traces are identical with or without one.
	Meter *obs.Meter

	// Fault, when non-nil and enabled, injects the plan's faults into the
	// run, driven by FaultSeed (default 1) independently of Seed. TDTCP
	// flows additionally get the notification deadman armed (unless the
	// caller already configured one), so notification loss degrades into
	// schedule-inferred switching instead of a stall.
	Fault     *fault.Plan
	FaultSeed int64
	// Invariants attaches the runtime invariant checker to every connection
	// and the network, validating scoreboard/sequence/VOQ accounting between
	// simulation events, after every eighth one (see Result.Violations).
	Invariants bool

	// Stop, when non-nil, is the cooperative cancellation seam: it is polled
	// between simulation events (every StopEvery events; sim.DefaultStopEvery
	// when zero) and once it returns true the run abandons the event loop and
	// Run returns an error wrapping ErrCancelled. The seam sits outside the
	// determinism boundary — Stop typically reads a wall-clock deadline or an
	// atomic flag set by another goroutine — but provably cannot perturb
	// results: it runs between events, touches no simulation state, and only
	// decides whether the next event executes, so a cancelled run's trace is
	// a byte-identical prefix of the uncancelled run's (see
	// sim.Loop.SetStopCheck and TestCancelledRunTraceIsPrefix).
	Stop      func() bool
	StopEvery int

	// tweakNet, when non-nil, edits the rdcn.Config just before the network
	// is built. It is how this package's A/B tests reach the unpooled
	// reference data plane (a nil rdcn.Config.FramePool) without it being a
	// run option.
	tweakNet func(*rdcn.Config)
}

func (cfg *RunConfig) fillDefaults() {
	if cfg.Flows == 0 {
		cfg.Flows = 16
	}
	if cfg.WarmupWeeks == 0 {
		cfg.WarmupWeeks = 3
	}
	if cfg.MeasureWeeks == 0 {
		cfg.MeasureWeeks = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 5 * sim.Microsecond
	}
	if cfg.MarkThresh == 0 && needsECN(cfg.Variant, cfg.Flow) {
		cfg.MarkThresh = 5
	}
	if cfg.Scenario.Name == "" {
		cfg.Scenario = Hybrid()
	}
	if cfg.FaultSeed == 0 {
		cfg.FaultSeed = 1
	}
}

// PlotWeeks is the span of the paper's sequence and occupancy graphs in
// optical weeks: the part of the measurement window whose samples a Result
// keeps, so that a result does not grow with MeasureWeeks.
const PlotWeeks = 3

// Result carries everything a figure needs from one run.
type Result struct {
	Variant Variant
	Cfg     RunConfig

	// The four series cover the first PlotWeeks weeks of the measurement
	// window (all of it when MeasureWeeks is shorter), sampled every
	// SampleEvery, both ends included; for more, attach a Tracer or read the
	// "voq.r<k>.occ_pkts" histogram of Metrics.
	//
	// Seq is the aggregate delivered-bytes series, normalized to the window's
	// start (the paper's sequence graphs).
	Seq *stats.Series
	// VOQ is rack 0's uplink occupancy in packets.
	VOQ *stats.Series
	// VOQMean and VOQMax summarize rack 0's uplink occupancy over the whole
	// measurement window, past the end of the VOQ series: what VOQ.Mean() and
	// VOQ.Max() would read had every sample been kept.
	VOQMean, VOQMax float64

	GoodputGbps    float64
	OptimalGbps    float64
	PacketOnlyGbps float64

	// Per-optical-day distributions (Fig. 10): deltas between consecutive
	// optical-day starts during measurement.
	ReorderEventsPerDay *stats.CDF
	RetransPerDay       *stats.CDF

	// Aggregated endpoint counters over the whole run.
	Sender, Receiver tcp.Stats
	TDTCPSwitches    uint64
	// DeadmanEngaged sums schedule-inferred TDN switches across TDTCP flows
	// (notification-loss degradation, only non-zero on faulted runs).
	DeadmanEngaged uint64

	// Frame-conservation ledger at the horizon (see rdcn.FrameLedger); Run
	// fails outright if frames sent != delivered + dropped + in-flight.
	FramesSent, FramesDelivered, FramesMisrouted uint64

	// FaultStats counts the faults actually injected (zero value when the
	// run was not faulted).
	FaultStats fault.Stats
	// InvariantChecks and Violations report the runtime checker's activity
	// when RunConfig.Invariants was set.
	InvariantChecks uint64
	Violations      []invariant.Violation
	// Flight is the run's flight recorder (nil when disabled): the most
	// recent trace events, recorded regardless of JSONL tracing.
	Flight *trace.Flight
	// FlightSnapshot holds the ring contents frozen at the first invariant
	// violation (nil on clean or unchecked runs).
	FlightSnapshot []trace.Event
}

// plotSpan is the span of a Result's series: the first PlotWeeks weeks of
// the measurement window, or all of it when MeasureWeeks is shorter.
func (cfg *RunConfig) plotSpan() (start, end sim.Time) {
	week := cfg.Scenario.Schedule.Week()
	start = sim.Time(sim.Dur(cfg.WarmupWeeks) * week)
	return start, start.Add(sim.Dur(min(cfg.MeasureWeeks, PlotWeeks)) * week)
}

// Optimal is the §2.2 optimal reference (aggregate bytes) over the span of
// Seq, sampled and normalized like it. It depends on the configuration alone,
// not on the seed or the variant, so it is computed when asked for.
func (r *Result) Optimal() *stats.Series {
	c := &r.Cfg
	start, end := c.plotSpan()
	return workload.OptimalSeries(c.Scenario.Schedule, c.Scenario.TDNs, start, end, c.SampleEvery).Normalize()
}

// PacketOnly is the §2.2 packet-only reference, computed like Optimal.
func (r *Result) PacketOnly() *stats.Series {
	c := &r.Cfg
	start, end := c.plotSpan()
	return workload.PacketOnlySeries(c.Scenario.TDNs[0].Rate, start, end, c.SampleEvery).Normalize()
}

// ErrCancelled is the sentinel wrapped by Run and RunWorkload when the
// configured Stop seam requested cancellation before the run's horizon.
// Everything emitted up to the cancellation point (trace bytes, flight
// recorder contents) is a valid prefix of the uncancelled run's output.
var ErrCancelled = errors.New("run cancelled")

// Run executes one experiment and returns its measurements.
func Run(cfg RunConfig) (*Result, error) {
	cfg.fillDefaults()
	h, err := newRunHarness(&cfg)
	if err != nil {
		return nil, err
	}
	defer h.dumpOnPanic()
	loop, net, tracer := h.loop, h.net, h.tracer
	measureStart, end := h.measureStart, h.end
	flows := h.flows
	h.start()

	// Per-optical-day buckets over [measureStart, end).
	var evBuckets, rtBuckets stats.Buckets
	net.OnTransition = func(tdn int) {
		if tdn < 1 || loop.Now() < measureStart || loop.Now() > end {
			return
		}
		var ev, rt float64
		for _, f := range flows {
			st := f.SenderStats()
			ev += float64(st.ReorderEvents)
			rt += float64(st.LossMarks)
		}
		evBuckets.Close(ev)
		rtBuckets.Close(rt)
	}

	// Each flow's lifetime is a causal span: child events (recovery episodes,
	// cwnd swaps) hang off it in the Chrome view.
	flowSpans := make([]trace.SpanID, len(flows))
	for i, f := range flows {
		flowSpans[i] = tracer.BeginSpan(trace.CatTCP, int64(loop.Now()), "flow", i, -1, 0)
		f.Start(-1)
	}

	// Nobody plots past plotEnd, so the Seq sampler stops there and the VOQ
	// sampler goes on to the horizon for its mean and max alone.
	_, plotEnd := cfg.plotSpan()
	var seq, voq *stats.Sampler
	err = h.run(func() {
		seq = stats.NewSampler(loop, string(cfg.Variant), cfg.SampleEvery, plotEnd, plotEnd,
			func() float64 { return float64(h.delivered() - h.baseline) })
		voq = stats.NewSampler(loop, string(cfg.Variant), cfg.SampleEvery, end, plotEnd,
			func() float64 { return float64(net.Racks[0].QueueLen()) })
	})
	if err != nil {
		return nil, err
	}
	for i, f := range flows {
		tracer.EndSpan(trace.CatTCP, int64(loop.Now()), "flow", i, -1,
			flowSpans[i], float64(f.Delivered()), 0)
	}

	res := &Result{
		Variant:             cfg.Variant,
		Cfg:                 cfg,
		Seq:                 seq.Series.Normalize(),
		VOQ:                 voq.Series, // occupancy needs no normalization
		VOQMean:             voq.Mean(),
		VOQMax:              voq.Max(),
		GoodputGbps:         h.goodputGbps(),
		OptimalGbps:         workload.OptimalGbps(cfg.Scenario.Schedule, cfg.Scenario.TDNs),
		PacketOnlyGbps:      float64(cfg.Scenario.TDNs[0].Rate) / 1e9,
		ReorderEventsPerDay: evBuckets.CDF(),
		RetransPerDay:       rtBuckets.CDF(),
	}
	for _, f := range flows {
		s, r := f.SenderStats(), f.ReceiverStats()
		addStats(&res.Sender, &s)
		addStats(&res.Receiver, &r)
		if f.Snd != nil {
			if p, ok := f.Snd.Config().Policy.(*core.TDTCP); ok {
				ps := p.Stats()
				res.TDTCPSwitches += ps.Switches
				res.DeadmanEngaged += ps.DeadmanEngaged
			}
			if p, ok := f.Rcv.Config().Policy.(*core.TDTCP); ok {
				res.DeadmanEngaged += p.Stats().DeadmanEngaged
			}
		}
	}
	res.FramesSent, res.FramesDelivered, res.FramesMisrouted, err = h.finish(byteLedger{
		acked: res.Sender.BytesAcked, delivered: res.Receiver.BytesDelivered, written: -1})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", h.what, err)
	}
	if h.inj != nil {
		res.FaultStats = h.inj.Stats()
	}
	if chk := h.chk; chk != nil {
		res.InvariantChecks = chk.Checks()
		res.Violations = chk.Violations()
		res.FlightSnapshot = chk.FlightSnapshot()
	}
	res.Flight = h.flight
	// The VOQ series gets its label from the variant but its own axis: fix
	// labels for clarity.
	res.Seq.Label = string(cfg.Variant)
	res.VOQ.Label = string(cfg.Variant)
	populateMetrics(cfg, res, h)
	h.release()
	return res, nil
}

// newRunHarness is the set-up half of Run: the harness for cfg (defaults
// already filled) with Run's cfg.Flows long-running flows placed (see place),
// wired through one muxNet and registered, none started. The network has just
// the hosts the placement uses.
func newRunHarness(cfg *RunConfig) (*harness, error) {
	if err := CheckVariant(cfg.Variant, cfg.Scenario.Racks, false); err != nil {
		return nil, err
	}
	_, _, lastHost := place(cfg.Scenario.Racks, cfg.Flows-1)
	h, err := newHarness(cfg, fmt.Sprintf("%s on %s", cfg.Variant, cfg.Scenario.Name), lastHost+1)
	if err != nil {
		return nil, err
	}
	defer h.dumpOnPanic()
	mn := newMuxNet(h.net, h.pool, cfg.Variant, cfg.Flow)
	for i := 0; i < cfg.Flows; i++ {
		f, err := mn.runFlow(i)
		if err != nil {
			return nil, err
		}
		h.addFlow(f, i)
	}
	return h, nil
}

// populateMetrics fills cfg.Metrics (when set) with the run's counters and
// gauges. Keys are stable, so Registry.WriteJSON output is byte-comparable
// across runs of the same configuration.
func populateMetrics(cfg RunConfig, res *Result, h *harness) {
	m := cfg.Metrics
	if m == nil {
		return
	}
	m.Set("run.goodput_gbps", res.GoodputGbps)
	m.Set("run.optimal_gbps", res.OptimalGbps)
	m.Set("run.packetonly_gbps", res.PacketOnlyGbps)

	s, r := res.Sender, res.Receiver
	m.Add("tcp.segs_sent", int64(s.SegsSent))
	m.Add("tcp.segs_rcvd", int64(s.SegsRcvd))
	m.Add("tcp.bytes_sent", s.BytesSent)
	m.Add("tcp.bytes_acked", s.BytesAcked)
	m.Add("tcp.retransmits", int64(s.Retransmits))
	m.Add("tcp.fast_retransmits", int64(s.FastRetransmits))
	m.Add("tcp.rto_fires", int64(s.RTOFires))
	m.Add("tcp.tlp_probes", int64(s.TLPProbes))
	m.Add("tcp.reorder_events", int64(s.ReorderEvents))
	m.Add("tcp.reorder_packets", int64(s.ReorderPackets))
	m.Add("tcp.loss_marks", int64(s.LossMarks))
	m.Add("tcp.loss_filtered", int64(s.FilteredMarks))
	m.Add("tcp.undos", int64(s.Undos))
	m.Add("tcp.rtt_samples", int64(s.RTTSamples))
	m.Add("tcp.rtt_samples_dropped", int64(s.RTTSamplesDropped))
	m.Add("tcp.bytes_delivered", r.BytesDelivered)
	m.Add("tcp.dup_segs_rcvd", int64(r.DupSegsRcvd))
	m.Add("tcp.dsacks_sent", int64(r.DSACKsSent))
	m.Add("tcp.notifies_rcvd", int64(s.NotifiesRcvd+r.NotifiesRcvd))
	m.Add("tcp.notifies_stale", int64(s.NotifiesStale+r.NotifiesStale))
	m.Add("tcp.notifies_dup", int64(s.NotifiesDup+r.NotifiesDup))
	m.Add("tdtcp.switches", int64(res.TDTCPSwitches))
	m.Add("tdtcp.deadman_engaged", int64(res.DeadmanEngaged))
	if cfg.Invariants {
		m.Add("invariant.checks", int64(res.InvariantChecks))
		// Ensure the violations counter exists even on clean runs, so "zero
		// violations" is visible rather than a missing key.
		m.Add("invariant.violations", 0)
	}

	for i, f := range h.flows {
		m.Add(fmt.Sprintf("flow.%02d.bytes_delivered", i), f.Delivered())
	}
	for _, rack := range h.net.Racks {
		var enq, deq, drops, marks uint64
		for _, v := range rack.VOQs() {
			e, d, dr, mk := v.Stats()
			enq += e
			deq += d
			drops += dr
			marks += mk
		}
		m.Add(fmt.Sprintf("voq.r%d.enq", rack.ID), int64(enq))
		m.Add(fmt.Sprintf("voq.r%d.deq", rack.ID), int64(deq))
		m.Add(fmt.Sprintf("voq.r%d.drops", rack.ID), int64(drops))
		m.Add(fmt.Sprintf("voq.r%d.marks", rack.ID), int64(marks))
	}

	// Timers still armed at the horizon: the queue holds no stopped ones.
	m.Set("sim.live_timers", float64(h.loop.Live()))
	if cfg.Tracer != nil {
		m.Add("trace.events", int64(cfg.Tracer.Count()))
	}
}

// defaultDeadmanHorizon derives a notification-deadman horizon from the
// schedule: 1.5× the longest gap between consecutive day starts, so a single
// lost notification trips the fallback while nominal delivery never does.
func defaultDeadmanHorizon(s *rdcn.Schedule) sim.Dur {
	week := s.Week()
	var starts []sim.Dur
	for t := sim.Time(0); t < sim.Time(week); {
		_, ok, end := s.At(t)
		if ok {
			starts = append(starts, sim.Dur(t))
		}
		if end <= t {
			return 0 // degenerate schedule; leave the deadman unarmed
		}
		t = end
	}
	if len(starts) == 0 {
		return 0
	}
	var gap sim.Dur
	for i, st := range starts {
		next := starts[0] + week // wrap to the next week's first day
		if i+1 < len(starts) {
			next = starts[i+1]
		}
		if g := next - st; g > gap {
			gap = g
		}
	}
	return gap + gap/2
}
