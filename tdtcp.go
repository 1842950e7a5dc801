// Package tdtcp is a pure-Go reproduction of "Time-division TCP for
// Reconfigurable Data Center Networks" (SIGCOMM 2022): the TDTCP transport
// (per-TDN congestion state over a unified sequence space), the baselines it
// is evaluated against (CUBIC, DCTCP, reTCP, MPTCP with a tdm_schd
// scheduler), and a deterministic discrete-event emulation of the hybrid
// electrical/optical data-center network the paper measures on.
//
// # Quick start
//
//	loop := tdtcp.NewLoop(1)
//	net, _ := tdtcp.NewNetwork(loop, tdtcp.DefaultNetworkConfig())
//	flow, _ := tdtcp.BuildFlow(net, 0, tdtcp.TDTCP, tdtcp.FlowOptions{})
//	net.Start(tdtcp.Time(10 * tdtcp.Millisecond))
//	flow.Start(-1) // stream forever
//	loop.RunUntil(tdtcp.Time(10 * tdtcp.Millisecond))
//	fmt.Println(flow.Delivered(), "bytes delivered")
//
// Or reproduce a whole paper figure:
//
//	fig, _ := tdtcp.Fig7(tdtcp.FigureOptions{})
//	fmt.Print(fig.Render())
//
// The heavy lifting lives in the internal packages (sim, netem, rdcn, tcp,
// cc, core, mptcp, experiments); this package re-exports the surface a
// downstream user needs.
package tdtcp

import (
	"io"
	"time"

	"github.com/rdcn-net/tdtcp/internal/cc"
	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/experiments"
	"github.com/rdcn-net/tdtcp/internal/fault"
	"github.com/rdcn-net/tdtcp/internal/invariant"
	"github.com/rdcn-net/tdtcp/internal/mptcp"
	"github.com/rdcn-net/tdtcp/internal/obs"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/stats"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
	"github.com/rdcn-net/tdtcp/internal/workload"
)

// Simulation primitives.
type (
	// Loop is the deterministic discrete-event simulation loop.
	Loop = sim.Loop
	// Time is virtual time in nanoseconds since simulation start.
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Dur
	// Rate is a link bandwidth.
	Rate = sim.Rate
)

// Re-exported units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second

	Kbps = sim.Kbps
	Mbps = sim.Mbps
	Gbps = sim.Gbps
)

// NewLoop returns a simulation loop seeded deterministically.
func NewLoop(seed int64) *Loop { return sim.NewLoop(seed) }

// Network model.
type (
	// Network is the two-rack hybrid RDCN.
	Network = rdcn.Network
	// NetworkConfig assembles a Network.
	NetworkConfig = rdcn.Config
	// Schedule is the cyclic day/night/week optical schedule.
	Schedule = rdcn.Schedule
	// ScheduleSlot is one schedule entry (TDN or night).
	ScheduleSlot = rdcn.Slot
	// TDNParams is one time-division network's rate and one-way delay.
	TDNParams = rdcn.TDNParams
	// NotifyProfile models TDN-change notification latency (§5.4).
	NotifyProfile = rdcn.NotifyProfile
	// PreChange is the retcpdyn advance buffer-resize support.
	PreChange = rdcn.PreChange
	// NetworkHost is an end host attached to a rack.
	NetworkHost = rdcn.Host
)

// NightTDN marks a reconfiguration blackout slot in a Schedule.
const NightTDN = rdcn.NightTDN

// NewNetwork assembles a network from cfg.
func NewNetwork(loop *Loop, cfg NetworkConfig) (*Network, error) { return rdcn.New(loop, cfg) }

// DefaultNetworkConfig is the paper's §5.1 testbed configuration.
func DefaultNetworkConfig() NetworkConfig { return rdcn.DefaultConfig() }

// HybridWeek builds the packet/optical schedule of §5.1.
func HybridWeek(packetDays int, day, night Duration) *Schedule {
	return rdcn.HybridWeek(packetDays, day, night)
}

// NewSchedule validates an arbitrary cyclic schedule.
func NewSchedule(slots []ScheduleSlot) (*Schedule, error) { return rdcn.NewSchedule(slots) }

// ParseSchedule parses the compact schedule syntax, e.g.
// "6x(0:180us,-:20us),1:180us,-:20us" for the paper's hybrid week.
func ParseSchedule(spec string) (*Schedule, error) { return rdcn.ParseSchedule(spec) }

// OptimizedNotify and UnoptimizedNotify are the §5.4 notification profiles.
func OptimizedNotify() NotifyProfile { return rdcn.OptimizedNotify() }

// UnoptimizedNotify is the baseline (push-model, uncached) profile.
func UnoptimizedNotify() NotifyProfile { return rdcn.UnoptimizedNotify() }

// Transport.
type (
	// Conn is a single TCP endpoint (sender and/or receiver).
	Conn = tcp.Conn
	// ConnConfig parameterizes a Conn.
	ConnConfig = tcp.Config
	// ConnStats is the per-connection instrumentation bundle.
	ConnStats = tcp.Stats
	// PathState is one per-TDN state set (§3.1).
	PathState = tcp.PathState
	// TDTCPPolicy is the paper's per-TDN multiplexing engine.
	TDTCPPolicy = core.TDTCP
	// TDTCPOptions toggles individual TDTCP mechanisms (ablations).
	TDTCPOptions = core.Options
	// MPTCPConn is a multipath connection with a tdm_schd scheduler.
	MPTCPConn = mptcp.Conn
	// MPTCPConfig parameterizes an MPTCPConn.
	MPTCPConfig = mptcp.Config
	// Segment is the wire packet (Fig. 5 formats).
	Segment = packet.Segment
	// CCAlgorithm is a congestion-control algorithm instance.
	CCAlgorithm = cc.Algorithm
)

// NewConn constructs a TCP endpoint; out transmits serialized segments.
func NewConn(loop *Loop, cfg ConnConfig, out func(*Segment)) *Conn {
	return tcp.NewConn(loop, cfg, out)
}

// NewTDTCPPolicy returns the TDTCP policy for numTDNs time-division
// networks; pass it as ConnConfig.Policy together with
// ConnConfig.NumTDNs=numTDNs.
func NewTDTCPPolicy(numTDNs int, opts TDTCPOptions) *TDTCPPolicy {
	return core.New(numTDNs, opts)
}

// NewMPTCP constructs a multipath endpoint with one subflow per out.
func NewMPTCP(loop *Loop, cfg MPTCPConfig, outs []func(*Segment)) *MPTCPConn {
	return mptcp.New(loop, cfg, outs)
}

// ParseSegment decodes wire bytes into s (gopacket-style reusable decode).
func ParseSegment(b []byte, s *Segment) error { return packet.Parse(b, s) }

// CC algorithm constructors.
func NewCubicCC() CCAlgorithm { return cc.NewCubic() }

// NewRenoCC returns a NewReno instance.
func NewRenoCC() CCAlgorithm { return cc.NewReno() }

// NewDCTCPCC returns a DCTCP instance.
func NewDCTCPCC() CCAlgorithm { return cc.NewDCTCP() }

// NewReTCPCC returns a reTCP instance with ramp factor alpha.
func NewReTCPCC(alpha float64) CCAlgorithm { return cc.NewReTCP(alpha) }

// Experiments.
type (
	// Variant names a transport under test ("tdtcp", "cubic", …).
	Variant = experiments.Variant
	// Flow is a ready-wired sender/receiver pair on a Network.
	Flow = experiments.Flow
	// FlowOptions tweaks flow construction.
	FlowOptions = experiments.FlowOptions
	// RunConfig fully specifies one experiment run.
	RunConfig = experiments.RunConfig
	// Scenario selects network conditions (Hybrid, BandwidthOnly, …).
	Scenario = experiments.Scenario
	// Result carries one run's measurements. Its series cover the first
	// PlotWeeks weeks of the measurement window; VOQMean and VOQMax the whole.
	Result = experiments.Result
	// SweepResult pairs one sweep cell's config with its outcome.
	SweepResult = experiments.SweepResult
	// Figure is a reproduced paper figure.
	Figure = experiments.Figure
	// FigureOptions scales a figure reproduction.
	FigureOptions = experiments.Options
	// Series is a labeled time series / CDF trace.
	Series = stats.Series
	// CDF is an empirical distribution.
	CDF = stats.CDF
)

// The transports evaluated in the paper.
const (
	Cubic    = experiments.Cubic
	DCTCP    = experiments.DCTCP
	Reno     = experiments.Reno
	ReTCP    = experiments.ReTCP
	ReTCPDyn = experiments.ReTCPDyn
	MPTCP    = experiments.MPTCP
	TDTCP    = experiments.TDTCP
)

// PlotWeeks is how many optical weeks of the measurement window a Result's
// series cover: the span the paper's sequence and occupancy graphs plot.
const PlotWeeks = experiments.PlotWeeks

// AllVariants lists every transport in the paper's Fig. 7 legend order.
var AllVariants = experiments.AllVariants

// BuildFlow wires one flow of the given variant between host i of rack 0
// and host i of rack 1.
func BuildFlow(net *Network, i int, v Variant, opt FlowOptions) (*Flow, error) {
	return experiments.BuildFlow(net, i, v, opt)
}

// Run executes one fully-specified experiment.
func Run(cfg RunConfig) (*Result, error) { return experiments.Run(cfg) }

// ErrRunCancelled is the sentinel wrapped by Run and RunWorkload when the
// configured RunConfig.Stop seam requests cancellation before the horizon.
// A cancelled run's trace is a byte-identical prefix of the uncancelled
// run's (the seam is polled between events and never perturbs results).
var ErrRunCancelled = experiments.ErrCancelled

// SweepMatrix expands base over variants × seeds in variant-major order.
func SweepMatrix(base RunConfig, variants []Variant, seeds []int64) []RunConfig {
	return experiments.Matrix(base, variants, seeds)
}

// Sweep executes every config (workers in parallel; <=1 sequential) and
// returns results in input order.
func Sweep(cfgs []RunConfig, workers int) []SweepResult { return experiments.Sweep(cfgs, workers) }

// Flow workloads and FCT accounting (multi-rack evaluation).
type (
	// WorkloadConfig specifies an open-loop flow workload run.
	WorkloadConfig = experiments.WorkloadConfig
	// WorkloadResult carries one workload run's outcome.
	WorkloadResult = experiments.WorkloadResult
	// WorkloadSweepResult pairs one workload sweep cell with its outcome.
	WorkloadSweepResult = experiments.WorkloadSweepResult
	// FlowSizeCDF is an empirical flow-size distribution.
	FlowSizeCDF = workload.FlowSizeCDF
	// FCT collects flow completion times by size bucket.
	FCT = stats.FCT
	// FCTSummary condenses one FCT size bucket.
	FCTSummary = stats.FCTSummary
)

// RunWorkload executes one open-loop flow-workload experiment.
func RunWorkload(cfg WorkloadConfig) (*WorkloadResult, error) { return experiments.RunWorkload(cfg) }

// SweepWorkload executes every workload config (workers in parallel) and
// returns results in input order.
func SweepWorkload(cfgs []WorkloadConfig, workers int) []WorkloadSweepResult {
	return experiments.SweepWorkload(cfgs, workers)
}

// WebSearchCDF is the web-search flow-size distribution (DCTCP paper).
func WebSearchCDF() *FlowSizeCDF { return workload.WebSearch() }

// DataMiningCDF is the data-mining flow-size distribution (VL2 paper).
func DataMiningCDF() *FlowSizeCDF { return workload.DataMining() }

// ParseFlowSizeCDF parses a "size:frac size:frac ..." distribution table.
func ParseFlowSizeCDF(name, text string) (*FlowSizeCDF, error) {
	return workload.ParseFlowSizeCDF(name, text)
}

// FlowSizeCDFByName resolves a named built-in distribution ("websearch",
// "datamining").
func FlowSizeCDFByName(name string) (*FlowSizeCDF, error) { return workload.ByName(name) }

// Rotor topology helpers (multi-rack RDCN).
func RotorWeek(nRacks, packetDays int, day, night Duration) *Schedule {
	return rdcn.RotorWeek(nRacks, packetDays, day, night)
}

// RotorPeer returns the rack matched with rack on optical day (1-based);
// -1 when the rack sits out (odd rack counts).
func RotorPeer(nRacks, day, rack int) int { return rdcn.RotorPeer(nRacks, day, rack) }

// NumMatchings is the optical-day count of an n-rack rotor week.
func NumMatchings(n int) int { return rdcn.NumMatchings(n) }

// Scenario constructors (§5.2's three settings).
func HybridScenario() Scenario { return experiments.Hybrid() }

// BandwidthOnlyScenario varies only the rate between TDNs (Fig. 8).
func BandwidthOnlyScenario() Scenario { return experiments.BandwidthOnly() }

// LatencyOnlyScenario varies only the latency (Figs. 9, 14).
func LatencyOnlyScenario(rate Rate) Scenario { return experiments.LatencyOnly(rate) }

// MultiRackScenario scales the hybrid setting to an n-rack rotor RDCN.
func MultiRackScenario(n int) Scenario { return experiments.MultiRack(n) }

// Figure reproductions, one per paper figure (see DESIGN.md's index).
func Fig2(o FigureOptions) (*Figure, error) { return experiments.Fig2(o) }

// Fig7 reproduces the paper's main comparison (Fig. 7).
func Fig7(o FigureOptions) (*Figure, error) { return experiments.Fig7(o) }

// Fig8 reproduces the bandwidth-difference-only comparison.
func Fig8(o FigureOptions) (*Figure, error) { return experiments.Fig8(o) }

// Fig9 reproduces the latency-difference-only comparison.
func Fig9(o FigureOptions) (*Figure, error) { return experiments.Fig9(o) }

// Fig10 reproduces the reordering/retransmission CDFs.
func Fig10(o FigureOptions) (*Figure, error) { return experiments.Fig10(o) }

// Fig11 reproduces the notification-optimization comparison.
func Fig11(o FigureOptions) (*Figure, error) { return experiments.Fig11(o) }

// Fig13 reproduces the appendix VOQ-occupancy figure for CUBIC and MPTCP.
func Fig13(o FigureOptions) (*Figure, error) { return experiments.Fig13(o) }

// Fig14 reproduces the appendix latency-only VOQ-occupancy figure.
func Fig14(o FigureOptions) (*Figure, error) { return experiments.Fig14(o) }

// Headline reproduces the abstract's throughput claims.
func Headline(o FigureOptions) (*Figure, error) { return experiments.Headline(o) }

// Ablation quantifies each TDTCP mechanism's contribution.
func Ablation(o FigureOptions) (*Figure, error) { return experiments.Ablation(o) }

// FigRotor compares the rotor-capable variants on an N-rack fabric.
func FigRotor(o FigureOptions) (*Figure, error) { return experiments.FigRotor(o) }

// FigMultiRack runs the open-loop flow workload on an N-rack fabric.
func FigMultiRack(o FigureOptions) (*Figure, error) { return experiments.FigMultiRack(o) }

// Figures maps figure IDs ("fig2" … "headline", "ablation") to runners.
var Figures = experiments.Figures

// Observability (see DESIGN.md "Observability").
type (
	// Tracer is the structured event tracer; a nil *Tracer is a valid,
	// zero-overhead disabled tracer.
	Tracer = trace.Tracer
	// TraceEvent is one traced event (JSONL line).
	TraceEvent = trace.Event
	// TraceCategory is the event-category bitmask.
	TraceCategory = trace.Category
	// MetricsRegistry collects named counters and gauges.
	MetricsRegistry = trace.Registry
	// Histogram is a zero-allocation log-linear latency/occupancy histogram
	// (see MetricsRegistry.Hist).
	Histogram = trace.Histogram
	// SpanID names one causal span within a run (Tracer.BeginSpan/EndSpan).
	SpanID = trace.SpanID
	// FlightRecorder is the always-on fixed-size ring of recent trace
	// events, dumped on invariant/conservation failures and panics.
	FlightRecorder = trace.Flight
	// ProgressMeter is a lock-free live-progress tap on a run (events/sec,
	// sim/wall ratio, flows); pure observer, wall-clock based.
	ProgressMeter = obs.Meter
	// ProgressReporter prints a meter's status line periodically.
	ProgressReporter = obs.Reporter
	// SweepProgressMeter tracks a parallel sweep's per-worker status; it
	// implements SweepObserver.
	SweepProgressMeter = obs.SweepMeter
	// SweepObserver receives per-cell callbacks from SweepWithObserver.
	SweepObserver = experiments.SweepObserver
)

// Trace categories, one bit per subsystem.
const (
	TraceSim   = trace.CatSim
	TraceTCP   = trace.CatTCP
	TraceCC    = trace.CatCC
	TraceTDN   = trace.CatTDN
	TraceVOQ   = trace.CatVOQ
	TraceRDCN  = trace.CatRDCN
	TraceFault = trace.CatFault
	TraceAll   = trace.CatAll
)

// NewTracer returns a tracer streaming JSONL events to w.
func NewTracer(w io.Writer, mask TraceCategory) *Tracer { return trace.New(w, mask) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return trace.NewRegistry() }

// ParseTraceCategories parses a comma-separated category list ("tcp,cc" or
// "all") into a mask.
func ParseTraceCategories(s string) (TraceCategory, error) { return trace.ParseCategories(s) }

// ChromeTrace converts JSONL trace events (r) to Chrome trace-viewer JSON (w).
func ChromeTrace(r io.Reader, w io.Writer) error { return trace.Chrome(r, w) }

// Flight-recorder defaults (ring length, recorded categories).
const (
	DefaultFlightLen  = trace.DefaultFlightLen
	DefaultFlightCats = trace.DefaultFlightCats
)

// NewFlightRecorder returns a ring recorder keeping the last n events whose
// category is in mask.
func NewFlightRecorder(n int, mask TraceCategory) *FlightRecorder { return trace.NewFlight(n, mask) }

// NewProgressMeter returns an empty live-progress meter (RunConfig.Meter).
func NewProgressMeter() *ProgressMeter { return obs.NewMeter() }

// NewProgressReporter prints line() to w every interval (<= 0 = 1s) once
// started; Stop flushes a final line.
func NewProgressReporter(w io.Writer, every time.Duration, line func() string) *ProgressReporter {
	return obs.NewReporter(w, every, line)
}

// NewSweepProgressMeter sizes a sweep meter for total cells over workers.
func NewSweepProgressMeter(total, workers int) *SweepProgressMeter {
	return obs.NewSweepMeter(total, workers)
}

// SweepWithObserver is Sweep with per-cell progress callbacks.
func SweepWithObserver(cfgs []RunConfig, workers int, o SweepObserver) []SweepResult {
	return experiments.SweepWithObserver(cfgs, workers, o)
}

// SweepWorkloadWithObserver is SweepWorkload with per-cell callbacks.
func SweepWorkloadWithObserver(cfgs []WorkloadConfig, workers int, o SweepObserver) []WorkloadSweepResult {
	return experiments.SweepWorkloadWithObserver(cfgs, workers, o)
}

// Fault injection and invariant checking (see DESIGN.md "Fault model &
// graceful degradation").
type (
	// FaultPlan is a per-run fault-injection plan (rates, bursts, flaps).
	FaultPlan = fault.Plan
	// FaultInjector drives a FaultPlan deterministically against a Network.
	FaultInjector = fault.Injector
	// FaultStats counts the faults an injector actually delivered.
	FaultStats = fault.Stats
	// InvariantChecker revalidates connection and network invariants after
	// every simulation event.
	InvariantChecker = invariant.Checker
	// InvariantViolation is one recorded invariant failure.
	InvariantViolation = invariant.Violation
)

// ParseFaultPlan parses the -fault flag syntax, e.g.
// "nloss=0.1,drop=0.01,flaps=2".
func ParseFaultPlan(spec string) (FaultPlan, error) { return fault.Parse(spec) }

// NewFaultInjector returns an injector for plan, seeded independently of the
// loop (same loop seed + same fault seed = byte-identical runs).
func NewFaultInjector(loop *Loop, plan FaultPlan, seed int64) *FaultInjector {
	return fault.New(loop, plan, seed)
}

// NewInvariantChecker hooks a checker into loop's post-event point.
func NewInvariantChecker(loop *Loop) *InvariantChecker { return invariant.New(loop) }

// Analytic references (§2.2).
func OptimalBytes(sch *Schedule, tdns []TDNParams, t Time) int64 {
	return workload.OptimalBytes(sch, tdns, t)
}

// PacketOnlyBytes is the §2.2 packet-network-only reference.
func PacketOnlyBytes(rate Rate, t Time) int64 { return workload.PacketOnlyBytes(rate, t) }

// OptimalGbps is the long-run average rate of the optimal reference.
func OptimalGbps(sch *Schedule, tdns []TDNParams) float64 { return workload.OptimalGbps(sch, tdns) }
