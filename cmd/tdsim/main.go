// Command tdsim reproduces the paper's experiments on the emulated RDCN.
//
// Usage:
//
//	tdsim -fig fig7                 # reproduce one figure
//	tdsim -fig all                  # reproduce every figure
//	tdsim -fig fig10 -csv out/      # also dump plottable CSV series
//	tdsim -run tdtcp -weeks 20      # single-variant run with counters
//	tdsim -run tdtcp -trace out.jsonl -metrics out.json
//	                                # + JSONL event trace and metrics JSON
//	tdsim -run tdtcp -progress      # live events/sec + sim/wall on stderr
//	tdsim -run tdtcp -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	                                # runtime/pprof over the whole process
//	                                # (any mode), written on every exit path
//	tdsim -run tdtcp -deadline 5s   # wall-clock budget; cooperative cancel,
//	                                # exit 3 (trace stays a valid prefix)
//	tdsim -run tdtcp -workload websearch -racks 8 -metrics out.json
//	                                # one open-loop flow-workload run on the
//	                                # rotor fabric: FCTs and the flow life
//	                                # cycle (released, late segments, ports)
//	tdsim -sweep tdtcp,cubic -seeds 4 -parallel 8 -progress
//	                                # variants x seeds matrix, 8 workers,
//	                                # per-worker cell status on stderr
//
// Figures: fig2 fig7 fig8 fig9 fig10 fig11 fig13 fig14 headline ablation,
// plus the multi-rack rotor figures:
//
//	tdsim -fig rotor -racks 8       # long-lived flows, 8-rack rotor fabric
//	tdsim -fig multirack -racks 8 -workload websearch
//	                                # open-loop flow workload with FCTs
//
// Traces and metrics dumps are post-processed with the tdtrace command
// (summary, filtering, Chrome trace-viewer export, span stats, per-flow
// timelines, histogram summaries).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	tdtcp "github.com/rdcn-net/tdtcp"
	"github.com/rdcn-net/tdtcp/internal/stats"
)

func main() {
	var (
		figID  = flag.String("fig", "", "figure to reproduce (fig2, fig7, ..., headline, ablation, or 'all')")
		runVar = flag.String("run", "", "run a single variant (tdtcp, cubic, dctcp, retcp, retcpdyn, mptcp2f) and print counters")
		flows  = flag.Int("flows", 16, "flows (host pairs)")
		warmup = flag.Int("warmup", 0, "warmup weeks excluded from measurement (0 = default 3)")
		weeks  = flag.Int("weeks", 0, "measurement weeks (0 = default 20)")
		seed   = flag.Int64("seed", 1, "simulation seed")
		quick  = flag.Bool("quick", false, "shrink runs for a fast smoke pass (-fig and -sweep; -run sizes via -warmup/-weeks)")
		csvDir = flag.String("csv", "", "directory to write plottable CSV series into (-fig only)")

		racks    = flag.Int("racks", 0, "rack count of the rotor fabric (-fig rotor/multirack and -run with -workload only; 0 = default 4; refused by -sweep and by a long-lived -run, which use the two-rack hybrid)")
		workload = flag.String("workload", "", "flow-size distribution (websearch, datamining) for the workload figures (-fig); with -run, runs that variant's open-loop flow workload on the rotor fabric instead of long-lived flows; refused by -sweep")

		traceOut  = flag.String("trace", "", "write a JSONL event trace (point events and causal spans) to this file (-run only; '-' = stdout)")
		traceCats = flag.String("tracecats", "tcp,cc,tdn,voq,rdcn,fault", "trace categories for -trace (comma-separated; 'all' adds the chatty sim loop; ignored without -trace)")
		metricsFn = flag.String("metrics", "", "write run counters, gauges and histogram summaries as JSON to this file (-run only; '-' = stdout)")

		sweepSpec = flag.String("sweep", "", "sweep a comma-separated variant list (or 'all') over -seeds seeds")
		seeds     = flag.Int("seeds", 4, "number of seeds per sweep cell (-sweep only; < 1 = 1)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent runs in a sweep (1 = sequential)")

		faultSpec  = flag.String("fault", "", "fault-injection plan, e.g. 'nloss=0.1,drop=0.01,flaps=2' (-run only; seeded by -faultseed)")
		faultSeed  = flag.Int64("faultseed", 1, "fault-injection seed, independent of -seed (-run only)")
		invariants = flag.Bool("invariants", false, "check connection/network invariants between events (after every eighth) and dump the flight recorder on violation (-run only)")
		schedSpec  = flag.String("sched", "", "override the optical schedule, e.g. '6x(0:180us,-:20us),1:180us,-:20us' (-run only)")

		deadline = flag.Duration("deadline", 0, "wall-clock budget for the run; on expiry the run is cancelled through the cooperative stop seam and tdsim exits 3 (-run only; 0 = none)")

		progress  = flag.Bool("progress", false, "print live progress to stderr: events/sec and sim/wall ratio (-run), per-worker cell status (-sweep)")
		flightLen = flag.Int("flightrec", tdtcp.DefaultFlightLen,
			"flight-recorder ring length: recent events kept for failure dumps (-run/-sweep; 0 = disable)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole process to this file (any mode)")
		memProfile = flag.String("memprofile", "", "write an allocation profile of the whole process to this file at exit (any mode)")
	)
	flag.Parse()

	if err := startProfiles(*cpuProfile, *memProfile); err != nil {
		fatal(err)
	}
	defer func() { stopProfiles() }()

	switch {
	case *sweepSpec != "":
		refuseFabricFlags("-sweep", *racks, *workload)
		w, m := *warmup, *weeks
		if w == 0 {
			w = 3
		}
		if m == 0 {
			m = 20
		}
		if *quick {
			w, m = 1, 2
		}
		if err := runSweep(*sweepSpec, *seeds, *parallel, tdtcp.RunConfig{
			Flows: *flows, WarmupWeeks: w, MeasureWeeks: m,
		}, *flightLen, *progress); err != nil {
			fatal(err)
		}
	case *runVar != "" && *workload != "":
		if *faultSpec != "" || *invariants || *schedSpec != "" {
			fatal(fmt.Errorf("-fault, -invariants and -sched apply to long-lived -run only, not to -run -workload"))
		}
		dist, err := tdtcp.FlowSizeCDFByName(*workload)
		if err != nil {
			fatal(err)
		}
		n := *racks
		if n == 0 {
			n = 4
		}
		cfg := tdtcp.WorkloadConfig{
			Variant: tdtcp.Variant(*runVar), Scenario: tdtcp.MultiRackScenario(n), Dist: dist,
			WarmupWeeks: *warmup, MeasureWeeks: *weeks, Seed: *seed,
			Stop: deadlineStop(*deadline),
		}
		cfg.Flight, cfg.DisableFlight = flightFor(*flightLen)
		out, err := openOutputs(*traceOut, *traceCats, *metricsFn, *progress)
		if err != nil {
			fatal(err)
		}
		cfg.Tracer, cfg.Metrics, cfg.Meter = out.tracer, out.metrics, out.meter
		res, err := tdtcp.RunWorkload(cfg)
		exitOnRunError(out.finish(err), *deadline)
		printWorkload(res)
	case *runVar != "":
		refuseFabricFlags("a long-lived -run (the two-rack hybrid)", *racks, "")
		w, m := *warmup, *weeks
		if w == 0 {
			w = 3
		}
		if m == 0 {
			m = 20
		}
		cfg := tdtcp.RunConfig{
			Variant: tdtcp.Variant(*runVar), Flows: *flows,
			WarmupWeeks: w, MeasureWeeks: m, Seed: *seed,
			Invariants: *invariants,
		}
		if *faultSpec != "" {
			plan, err := tdtcp.ParseFaultPlan(*faultSpec)
			if err != nil {
				fatal(err)
			}
			cfg.Fault = &plan
			cfg.FaultSeed = *faultSeed
		}
		if *schedSpec != "" {
			sched, err := tdtcp.ParseSchedule(*schedSpec)
			if err != nil {
				fatal(err)
			}
			cfg.Scenario = tdtcp.HybridScenario()
			cfg.Scenario.Schedule = sched
		}
		cfg.Flight, cfg.DisableFlight = flightFor(*flightLen)
		cfg.Stop = deadlineStop(*deadline)
		out, err := openOutputs(*traceOut, *traceCats, *metricsFn, *progress)
		if err != nil {
			fatal(err)
		}
		cfg.Tracer, cfg.Metrics, cfg.Meter = out.tracer, out.metrics, out.meter
		res, err := tdtcp.Run(cfg)
		exitOnRunError(out.finish(err), *deadline)
		printRun(cfg, res)
	case *figID != "":
		opts := tdtcp.FigureOptions{Flows: *flows, WarmupWeeks: *warmup, MeasureWeeks: *weeks, Seed: *seed,
			Racks: *racks, Workload: *workload, Quick: *quick}
		ids := []string{*figID}
		if *figID == "all" {
			ids = ids[:0]
			for id := range tdtcp.Figures {
				ids = append(ids, id)
			}
			sort.Strings(ids)
		}
		for _, id := range ids {
			runner, ok := tdtcp.Figures[id]
			if !ok {
				fatal(fmt.Errorf("unknown figure %q", id))
			}
			fig, err := runner(opts)
			if err != nil {
				fatal(err)
			}
			fmt.Print(fig.Render())
			fmt.Println()
			if *csvDir != "" {
				if err := writeCSV(*csvDir, fig); err != nil {
					fatal(err)
				}
			}
		}
	default:
		flag.Usage()
		exit(2)
	}
}

// outFile opens path for writing ("-" = stdout). closeFn is a no-op for
// stdout.
func outFile(path string) (w io.Writer, closeFn func() error, err error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// flightFor turns the -flightrec flag into a run configuration's Flight and
// DisableFlight. Each run gets its own ring (recorders are never shared
// across sweep cells); the default length needs no explicit recorder — the
// run creates one.
func flightFor(n int) (*tdtcp.FlightRecorder, bool) {
	switch {
	case n <= 0:
		return nil, true
	case n != tdtcp.DefaultFlightLen:
		return tdtcp.NewFlightRecorder(n, tdtcp.DefaultFlightCats), false
	}
	return nil, false
}

// deadlineStop turns -deadline into a run's Stop hook (nil = no budget). The
// wall-clock budget rides the cooperative stop seam: polled between
// simulation events, so an interrupted run's trace is a byte-identical
// prefix of the full run's.
func deadlineStop(d time.Duration) func() bool {
	if d <= 0 {
		return nil
	}
	at := time.Now().Add(d)
	return func() bool { return !time.Now().Before(at) }
}

// exitOnRunError ends the process on a failed -run: exit 3 when the deadline
// cancelled it, 1 otherwise.
func exitOnRunError(err error, deadline time.Duration) {
	if errors.Is(err, tdtcp.ErrRunCancelled) {
		fmt.Fprintf(os.Stderr, "tdsim: deadline %v exceeded: %v\n", deadline, err)
		exit(3)
	}
	if err != nil {
		fatal(err)
	}
}

// outputs are the observers -trace, -metrics and -progress attach to a -run,
// whichever entry point executes it.
type outputs struct {
	tracer  *tdtcp.Tracer
	metrics *tdtcp.MetricsRegistry
	meter   *tdtcp.ProgressMeter

	rep        *tdtcp.ProgressReporter
	traceOut   string
	closeTrace func() error
	metricsFn  string
}

func openOutputs(traceOut, traceCats, metricsFn string, progress bool) (*outputs, error) {
	o := &outputs{traceOut: traceOut, metricsFn: metricsFn}
	if traceOut != "" {
		mask, err := tdtcp.ParseTraceCategories(traceCats)
		if err != nil {
			return nil, err
		}
		w, closeFn, err := outFile(traceOut)
		if err != nil {
			return nil, err
		}
		o.closeTrace = closeFn
		o.tracer = tdtcp.NewTracer(w, mask)
	}
	if metricsFn != "" {
		o.metrics = tdtcp.NewMetricsRegistry()
	}
	if progress {
		o.meter = tdtcp.NewProgressMeter()
		o.rep = tdtcp.NewProgressReporter(os.Stderr, time.Second, o.meter.Line)
		o.rep.Start()
	}
	return o, nil
}

// finish stops the progress reporter and, unless the run failed with runErr
// (returned as is), flushes the trace and writes the metrics.
func (o *outputs) finish(runErr error) error {
	if o.rep != nil {
		o.rep.Stop()
	}
	if runErr != nil {
		return runErr
	}
	if o.tracer != nil {
		if err := o.tracer.Flush(); err != nil {
			return err
		}
		if err := o.closeTrace(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tdsim: %d trace events -> %s\n", o.tracer.Count(), o.traceOut)
	}
	if o.metrics != nil {
		w, closeFn, err := outFile(o.metricsFn)
		if err != nil {
			return err
		}
		if err := o.metrics.WriteJSON(w); err != nil {
			return err
		}
		if err := closeFn(); err != nil {
			return err
		}
	}
	return nil
}

// printWorkload reports one -run -workload: goodput, completion times, the
// summed endpoint counters and the flow life cycle.
func printWorkload(res *tdtcp.WorkloadResult) {
	fmt.Printf("variant        %s on %s\n", res.Variant, res.Cfg.Scenario.Name)
	fmt.Printf("goodput        %.2f Gbps, mean VOQ %.1f pkts\n", res.GoodputGbps, res.MeanVOQ)
	fmt.Printf("flows          started=%d completed=%d released=%d ports-bound-max=%d late-segs=%d\n",
		res.FlowsStarted, res.FlowsCompleted, res.FlowsReleased, res.PortsBoundMax, res.LateSegs)
	for _, b := range res.FCT.Summaries() {
		if b.N > 0 {
			fmt.Printf("fct %-10s n=%d mean=%.1f us\n", b.Bucket, b.N, b.MeanUs)
		}
	}
	s := res.Sender
	fmt.Printf("sender         sent=%d acked=%dB retrans=%d (fast=%d rto=%d tlp=%d)\n",
		s.SegsSent, s.BytesAcked, s.Retransmits, s.FastRetransmits, s.RTOFires, s.TLPProbes)
	fmt.Printf("receiver       delivered=%dB spurious-rx=%d dsacks=%d\n",
		res.Receiver.BytesDelivered, res.Receiver.DupSegsRcvd, res.Receiver.DSACKsSent)
}

// printRun reports one long-lived -run.
func printRun(cfg tdtcp.RunConfig, res *tdtcp.Result) {
	fmt.Printf("variant        %s\n", res.Variant)
	fmt.Printf("goodput        %.2f Gbps (optimal %.2f, packet-only %.2f)\n",
		res.GoodputGbps, res.OptimalGbps, res.PacketOnlyGbps)
	s := res.Sender
	fmt.Printf("sender         sent=%d acked=%dB retrans=%d (fast=%d rto=%d tlp=%d)\n",
		s.SegsSent, s.BytesAcked, s.Retransmits, s.FastRetransmits, s.RTOFires, s.TLPProbes)
	fmt.Printf("reordering     events=%d pkts=%d lossMarks=%d filtered=%d undos=%d\n",
		s.ReorderEvents, s.ReorderPackets, s.LossMarks, s.FilteredMarks, s.Undos)
	fmt.Printf("rtt            samples=%d dropped-mixed=%d\n", s.RTTSamples, s.RTTSamplesDropped)
	fmt.Printf("receiver       delivered=%dB spurious-rx=%d dsacks=%d\n",
		res.Receiver.BytesDelivered, res.Receiver.DupSegsRcvd, res.Receiver.DSACKsSent)
	if res.TDTCPSwitches > 0 {
		fmt.Printf("tdtcp          state switches=%d deadman-engaged=%d\n",
			res.TDTCPSwitches, res.DeadmanEngaged)
	}
	if cfg.Fault != nil {
		fs := res.FaultStats
		fmt.Printf("faults         notify drop=%d dup=%d delay=%d\n",
			fs.NotifyDropped, fs.NotifyDuped, fs.NotifyDelayed)
		fmt.Printf("               frame drop=%d corrupt=%d delay=%d\n",
			fs.FramesDropped, fs.FramesCorrupted, fs.FramesDelayed)
		fmt.Printf("               flaps=%d resize-fails=%d\n",
			fs.CircuitFlaps, fs.ResizeFailures)
		fmt.Printf("degradation    notifies rcvd=%d stale=%d dup=%d\n",
			res.Sender.NotifiesRcvd+res.Receiver.NotifiesRcvd,
			res.Sender.NotifiesStale+res.Receiver.NotifiesStale,
			res.Sender.NotifiesDup+res.Receiver.NotifiesDup)
	}
	if cfg.Invariants {
		fmt.Printf("invariants     checks=%d violations=%d\n",
			res.InvariantChecks, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Printf("  VIOLATION    %v\n", v)
		}
	}
}

// runSweep executes a variants x seeds matrix across workers and prints one
// line per cell (input order, so output is deterministic regardless of the
// worker count) plus a per-variant mean.
func runSweep(spec string, nseeds, workers int, base tdtcp.RunConfig, flightLen int, progress bool) error {
	var variants []tdtcp.Variant
	if spec == "all" {
		variants = append(variants, tdtcp.AllVariants...)
	} else {
		for _, s := range strings.Split(spec, ",") {
			variants = append(variants, tdtcp.Variant(strings.TrimSpace(s)))
		}
	}
	if nseeds < 1 {
		nseeds = 1
	}
	seeds := make([]int64, nseeds)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	cfgs := tdtcp.SweepMatrix(base, variants, seeds)
	for i := range cfgs {
		cfgs[i].Flight, cfgs[i].DisableFlight = flightFor(flightLen)
	}
	fmt.Fprintf(os.Stderr, "tdsim: sweeping %d configs (%d variants x %d seeds) on %d workers\n",
		len(cfgs), len(variants), nseeds, workers)
	var obs tdtcp.SweepObserver
	var rep *tdtcp.ProgressReporter
	if progress {
		sm := tdtcp.NewSweepProgressMeter(len(cfgs), workers)
		rep = tdtcp.NewProgressReporter(os.Stderr, time.Second, sm.Line)
		rep.Start()
		obs = sm
	}
	results := tdtcp.SweepWithObserver(cfgs, workers, obs)
	if rep != nil {
		rep.Stop()
	}

	fmt.Printf("%-10s %5s %12s %12s %12s\n", "variant", "seed", "goodput", "retrans", "loss-marks")
	means := map[tdtcp.Variant]float64{}
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s seed %d: %w", r.Cfg.Variant, r.Cfg.Seed, r.Err)
		}
		fmt.Printf("%-10s %5d %9.2f Gb %12d %12d\n",
			r.Cfg.Variant, r.Cfg.Seed, r.Res.GoodputGbps,
			r.Res.Sender.Retransmits, r.Res.Sender.LossMarks)
		means[r.Cfg.Variant] += r.Res.GoodputGbps
	}
	fmt.Println()
	for _, v := range variants {
		fmt.Printf("%-10s mean  %9.2f Gb over %d seeds\n", v, means[v]/float64(nseeds), nseeds)
	}
	return nil
}

func writeCSV(dir string, fig *tdtcp.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dump := func(kind string, series []*stats.Series) error {
		for _, s := range series {
			name := fmt.Sprintf("%s_%s_%s.csv", fig.ID, kind, sanitize(s.Label))
			if err := os.WriteFile(filepath.Join(dir, name), []byte(s.CSV()), 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dump("seq", fig.Seq); err != nil {
		return err
	}
	if err := dump("voq", fig.VOQ); err != nil {
		return err
	}
	return dump("cdf", fig.CDF)
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// refuseFabricFlags exits 1 when -racks or -workload was given to a mode that
// would ignore it and print two-rack hybrid numbers as if it had not been.
func refuseFabricFlags(mode string, racks int, workload string) {
	switch {
	case racks != 0:
		fatal(fmt.Errorf("-racks applies to -fig and to -run with -workload, not to %s", mode))
	case workload != "":
		fatal(fmt.Errorf("-workload applies to -fig and to -run, not to %s", mode))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tdsim:", err)
	exit(1)
}

// stopProfiles finishes -cpuprofile and writes -memprofile; it runs on every
// way out of the process (main's return, exit) and does nothing when neither
// flag was given.
var stopProfiles = func() {}

// exit is os.Exit behind stopProfiles.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// startProfiles begins the CPU profile and arms stopProfiles. The profiles
// observe the process, never the simulation: a profiled run's output is
// byte-identical to an unprofiled one's.
func startProfiles(cpu, mem string) error {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuFile = f
	}
	stopProfiles = func() {
		stopProfiles = func() {}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err == nil {
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdsim: -memprofile:", err)
		}
	}
	return nil
}
