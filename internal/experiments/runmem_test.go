package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/fault"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// dropSpareMem empties the spare list, so that the next run starts on fresh
// memory.
func dropSpareMem() {
	spareMem.mu.Lock()
	spareMem.mems = nil
	spareMem.mu.Unlock()
}

// lastSpare is the memory the next run will take, or nil.
func lastSpare() *runMem {
	spareMem.mu.Lock()
	defer spareMem.mu.Unlock()
	if n := len(spareMem.mems); n > 0 {
		return spareMem.mems[n-1]
	}
	return nil
}

// parkedFlows is the set of flows the spare memory the next run takes
// carries.
func parkedFlows() map[*Flow]bool {
	set := map[*Flow]bool{}
	if m := lastSpare(); m != nil {
		for _, f := range m.parked {
			set[f] = true
		}
	}
	return set
}

// warmCase is a run TestWarmMemoryIsUnobservable repeats on warmed memory: it
// returns the run's JSONL trace and metrics bytes and its Result, with what
// depends on how the flows came to be (endpoints built or reopened) zeroed.
type warmCase struct {
	name string
	run  func(t *testing.T) ([]byte, any)
}

// warmer is a run that warms the memory the next run takes; same says it has
// the shape of the run it warms for, so that run must reopen every endpoint
// it hands on and build none, where any other must build afresh.
type warmer struct {
	name string
	same bool
	run  func() error
}

// tracedBytes runs fn with a tracer in every category but the loop's and a
// metrics registry, and returns the trace and metrics bytes.
func tracedBytes(t *testing.T, fn func(*trace.Tracer, *trace.Registry)) []byte {
	var buf bytes.Buffer
	tr, reg := trace.New(&buf, trace.CatAll&^trace.CatSim), trace.NewRegistry()
	fn(tr, reg)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rotor8 is the 8-rack rotor's open-loop web-search workload, at the load and
// size the benchmark's rotor workload has, shortened.
func rotor8(seed int64) WorkloadConfig {
	return WorkloadConfig{Variant: TDTCP, Scenario: MultiRack(8), Hosts: 4, Load: 0.4,
		WarmupWeeks: 1, MeasureWeeks: 4, Seed: seed}
}

// TestWarmMemoryIsUnobservable: a run on memory another run warmed writes the
// same JSONL trace and metrics bytes and returns the same Result as a run on
// fresh memory, and did take the warmed memory. The warmers are other
// scenarios — the 8-rack rotor's open-loop workload, whose pipe arrays and
// propagation cells the hybrid runs reuse, and a faulted run under the
// invariant checker — and runs of equal variant, TDN count and FlowOptions,
// whose endpoints the run reopens: then it builds none. Among those are a
// faulted MPTCP run, whose subflow gates may hold segments at its horizon,
// and a faulted TDTCP run on the standard schedule warming one on a rotated
// schedule with the same day-start gaps, hence the same deadman horizon: the
// reopened endpoints' deadman must follow the new run's schedule. A warmer
// that differs from the run in one TDTCPOpts flag, in TDN count or in variant
// hands on endpoints the run must not take.
func TestWarmMemoryIsUnobservable(t *testing.T) {
	plan, err := fault.Parse("drop=0.01,nloss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	nloss, err := fault.Parse("nloss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	rotated := Hybrid()
	rotated.Name = "hybrid-rotated"
	if rotated.Schedule, err = rdcn.ParseSchedule("1:180us,-:20us,6x(0:180us,-:20us)"); err != nil {
		t.Fatal(err)
	}
	hybrid := func(v Variant, seed int64, opt FlowOptions) func() error {
		return func() error {
			_, err := Run(RunConfig{Variant: v, WarmupWeeks: 1, MeasureWeeks: 2, Seed: seed, Flow: opt})
			return err
		}
	}
	others := []warmer{
		{"rotor8_websearch", false, func() error { _, err := RunWorkload(rotor8(1)); return err }},
		{"hybrid_cubic_faulted", false, func() error {
			_, err := Run(RunConfig{Variant: Cubic, Flows: 4, WarmupWeeks: 1, MeasureWeeks: 2,
				Fault: &plan, Invariants: true})
			return err
		}},
	}
	var cases []warmCase
	warmers := map[string][]warmer{}
	for _, v := range []Variant{TDTCP, MPTCP, Cubic, DCTCP, ReTCP, ReTCPDyn} {
		c := warmCase{string(v), func(t *testing.T) ([]byte, any) {
			var res *Result
			out := tracedBytes(t, func(tr *trace.Tracer, reg *trace.Registry) {
				var err error
				if res, err = Run(RunConfig{Variant: v, WarmupWeeks: 1, MeasureWeeks: 3, Tracer: tr, Metrics: reg}); err != nil {
					t.Fatal(err)
				}
			})
			res.Cfg.Tracer, res.Cfg.Metrics = nil, nil
			return out, res
		}}
		cases = append(cases, c)
		warmers[c.name] = append(warmers[c.name], warmer{"hybrid_" + string(v) + "_seed7", true, hybrid(v, 7, FlowOptions{})})
	}
	warmers["tdtcp"] = append(warmers["tdtcp"], others...)
	warmers["tdtcp"] = append(warmers["tdtcp"],
		warmer{"hybrid_tdtcp_no_rtt_filter", false, hybrid(TDTCP, 1, FlowOptions{TDTCPOpts: core.Options{DisableRTTFilter: true}})},
		warmer{"hybrid_split_tdtcp", false, func() error {
			_, err := Run(RunConfig{Variant: TDTCP, Scenario: splitHybrid(t), WarmupWeeks: 1, MeasureWeeks: 2})
			return err
		}})
	warmers["mptcp2f"] = append(warmers["mptcp2f"], others...)
	warmers["mptcp2f"] = append(warmers["mptcp2f"], warmer{"hybrid_mptcp2f_faulted", true, func() error {
		_, err := Run(RunConfig{Variant: MPTCP, WarmupWeeks: 1, MeasureWeeks: 2, Seed: 7, Fault: &plan, Invariants: true})
		return err
	}})
	warmers["cubic"] = append(warmers["cubic"], warmer{"hybrid_dctcp", false, hybrid(DCTCP, 1, FlowOptions{})})
	cases = append(cases, warmCase{"rotor8_websearch", func(t *testing.T) ([]byte, any) {
		var res *WorkloadResult
		out := tracedBytes(t, func(tr *trace.Tracer, reg *trace.Registry) {
			cfg := rotor8(1)
			cfg.Tracer, cfg.Metrics = tr, reg
			var err error
			if res, err = RunWorkload(cfg); err != nil {
				t.Fatal(err)
			}
		})
		res.Cfg.Tracer, res.Cfg.Metrics = nil, nil
		res.life.built, res.life.reopened = 0, 0
		return out, res
	}})
	cases = append(cases, warmCase{"tdtcp_faulted_rotated", func(t *testing.T) ([]byte, any) {
		var res *Result
		out := tracedBytes(t, func(tr *trace.Tracer, reg *trace.Registry) {
			var err error
			if res, err = Run(RunConfig{Variant: TDTCP, Scenario: rotated, WarmupWeeks: 1, MeasureWeeks: 3,
				Fault: &nloss, Tracer: tr, Metrics: reg}); err != nil {
				t.Fatal(err)
			}
		})
		if res.DeadmanEngaged == 0 {
			t.Fatal("the deadman never engaged: the case shows nothing")
		}
		res.Cfg.Tracer, res.Cfg.Metrics = nil, nil
		return out, res
	}})
	warmers["tdtcp_faulted_rotated"] = []warmer{{"hybrid_tdtcp_faulted", true, func() error {
		_, err := Run(RunConfig{Variant: TDTCP, WarmupWeeks: 1, MeasureWeeks: 2, Seed: 7, Fault: &nloss})
		return err
	}}}
	warmers["rotor8_websearch"] = []warmer{
		{"rotor8_websearch", true, func() error { _, err := RunWorkload(rotor8(1)); return err }},
		{"hybrid_tdtcp", false, hybrid(TDTCP, 1, FlowOptions{})},
	}

	for _, c := range cases {
		dropSpareMem()
		fresh, freshRes := c.run(t)
		for _, w := range warmers[c.name] {
			t.Run(c.name+"/"+w.name, func(t *testing.T) {
				dropSpareMem()
				if err := w.run(); err != nil {
					t.Fatal(err)
				}
				warm := lastSpare()
				if warm == nil {
					t.Fatal("the warming run handed no memory back")
				}
				handed := parkedFlows()
				if w.same && len(handed) == 0 {
					t.Fatal("the warming run handed on no endpoints")
				}
				got, res := c.run(t)
				if lastSpare() != warm {
					t.Fatal("the run did not take the warmed memory, or did not hand it back")
				}
				parked := parkedFlows()
				reopened := 0
				for f := range parked {
					if handed[f] {
						reopened++
					}
				}
				switch {
				case w.same && reopened != len(parked):
					t.Errorf("the run built %d flows beside the %d of the same shape it was handed", len(parked)-reopened, len(handed))
				case !w.same && reopened != 0:
					t.Errorf("the run reopened %d flows of another shape", reopened)
				}
				if !bytes.Equal(got, fresh) {
					d := firstDiffLine(got, fresh)
					t.Errorf("warm memory is observable: output diverges at line %d\nwarm:  %s\nfresh: %s",
						d, lineAt(got, d), lineAt(fresh, d))
				}
				if !reflect.DeepEqual(res, freshRes) {
					t.Error("the Result on warm memory differs from the one on fresh memory")
				}
			})
		}
	}
}

// TestFailedRunDropsItsMemory: a cancelled run takes the spare memory and does
// not hand it on.
func TestFailedRunDropsItsMemory(t *testing.T) {
	dropSpareMem()
	if _, err := Run(RunConfig{Variant: TDTCP, Flows: 4, WarmupWeeks: 1, MeasureWeeks: 1}); err != nil {
		t.Fatal(err)
	}
	if lastSpare() == nil {
		t.Fatal("a finished run handed no memory back")
	}
	_, err := Run(RunConfig{Variant: TDTCP, Flows: 4, WarmupWeeks: 1, MeasureWeeks: 1,
		Stop: func() bool { return true }, StopEvery: 1})
	if err == nil {
		t.Fatal("the cancelled run returned no error")
	}
	if lastSpare() != nil {
		t.Error("a cancelled run handed its memory back")
	}
}

// TestRunReusesItsMemory is the allocation contract of run-to-run reuse
// (DESIGN.md §10 "Connection state and the run's pool"): the second of two
// identical 3+20-week hybrid Runs takes the loop, the frame pool (with the
// pipes' FIFO arrays and propagation cells) and the tcp.Pool the first grew,
// and the endpoints it parked, and allocates at most 40 % of what the first
// did.
func TestRunReusesItsMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on this path")
	}
	run := func() uint64 {
		bytes, _ := allocatedBy(func() {
			if _, err := Run(RunConfig{Variant: TDTCP, WarmupWeeks: 3, MeasureWeeks: 20, Seed: 1001}); err != nil {
				t.Fatal(err)
			}
		})
		return bytes
	}
	dropSpareMem()
	first, second := run(), run()
	t.Logf("first run %d B, second %d B (%.0f %%)", first, second, 100*float64(second)/float64(first))
	if 5*second > 2*first {
		t.Errorf("the second run allocates %d B against the first's %d: more than 40 %%", second, first)
	}
}

// TestSameShapeRunReopensItsEndpoints is the allocation contract of handing
// endpoints on (DESIGN.md §10 "Endpoint reuse"): for each variant on the
// hybrid, MPTCP included, and for TDTCP under notification loss (its deadman
// armed), a 3+20-week Run on memory a Run of equal variant, TDN count and
// FlowOptions handed on reopens every endpoint it was handed, and allocates
// at most 80 % of what the same Run does on the same memory with the handed
// endpoints dropped, so that it builds its own.
func TestSameShapeRunReopensItsEndpoints(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on this path")
	}
	nloss, err := fault.Parse("nloss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		name string
		cfg  RunConfig
	}
	var rows []row
	for _, v := range []Variant{Cubic, DCTCP, ReTCP, ReTCPDyn, TDTCP, MPTCP} {
		rows = append(rows, row{string(v), RunConfig{Variant: v}})
	}
	rows = append(rows, row{"tdtcp+nloss", RunConfig{Variant: TDTCP, Fault: &nloss}})
	for _, r := range rows {
		run := func(seed int64) uint64 {
			cfg := r.cfg
			cfg.WarmupWeeks, cfg.MeasureWeeks, cfg.Seed = 3, 20, seed
			bytes, _ := allocatedBy(func() {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			return bytes
		}
		dropSpareMem()
		run(1001)
		handed := parkedFlows()
		if len(handed) == 0 {
			t.Fatalf("%s: the first run handed on no endpoints", r.name)
		}
		reopening := run(1002)
		for f := range parkedFlows() {
			if !handed[f] {
				t.Fatalf("%s: the second run built a flow beside the %d it was handed", r.name, len(handed))
			}
		}
		lastSpare().parked = nil
		building := run(1002)
		t.Logf("%-11s %d B reopening its endpoints, %d B building them (%.0f %%)",
			r.name, reopening, building, 100*float64(reopening)/float64(building))
		if 5*reopening > 4*building {
			t.Errorf("%s: %d B reopening against %d B building: more than 80 %%", r.name, reopening, building)
		}
	}
}

// TestHandBackReturnsEveryFrame: once a run has handed its memory back, every
// wire buffer it drew from the frame pool is back in it, the frames the
// horizon caught inside the network (in a NIC's FIFO, on a wire, in the
// propagation stage, in a VOQ) included, so the pool reads as many puts as
// gets. Checked on a plain and a faulted hybrid Run, an MPTCP Run, and the
// 8-rack rotor's open-loop workload.
func TestHandBackReturnsEveryFrame(t *testing.T) {
	plan, err := fault.Parse("drop=0.01,nloss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	hybrid := func(cfg RunConfig) func() error {
		return func() error {
			cfg.WarmupWeeks, cfg.MeasureWeeks = 1, 2
			_, err := Run(cfg)
			return err
		}
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"hybrid_tdtcp", hybrid(RunConfig{Variant: TDTCP})},
		{"hybrid_cubic_faulted", hybrid(RunConfig{Variant: Cubic, Fault: &plan})},
		{"hybrid_mptcp2f", hybrid(RunConfig{Variant: MPTCP})},
		{"rotor8_websearch", func() error { _, err := RunWorkload(rotor8(1)); return err }},
	} {
		dropSpareMem()
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gets, puts, _ := lastSpare().frames.Stats()
		if gets == 0 || gets != puts {
			t.Errorf("%s: the handed-back frame pool reads %d gets and %d puts", c.name, gets, puts)
		}
	}
}

// alive returns a probe of whether p is still reachable, which holds p only
// weakly.
func alive[T any](p *T) func() bool {
	w := weak.Make(p)
	return func() bool { return w.Value() != nil }
}

// TestParkedFlowsHoldNothingOfTheirRun: the parked flows a run hands on keep
// their endpoints and nothing of the run that released them. Once a metered
// Run of each variant TestSameShapeRunReopensItsEndpoints measures, and a
// RunWorkload of each variant it admits, has handed its memory back with its
// flows parked, the finished network, the result, its flight recorder, the
// scenario's schedule and the registry's RTT and deadman-lag histograms are
// collected.
func TestParkedFlowsHoldNothingOfTheirRun(t *testing.T) {
	nloss, err := fault.Parse("nloss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	// A row runs on a registry of its own with onNet set, and returns probes
	// of its result, the result's flight recorder and the scenario's
	// schedule, which the deadman was bound to.
	type row func(reg *trace.Registry, onNet func(*rdcn.Network)) (res, flight, schedule func() bool)
	hybrid := func(cfg RunConfig) row {
		return func(reg *trace.Registry, onNet func(*rdcn.Network)) (func() bool, func() bool, func() bool) {
			c := cfg
			c.WarmupWeeks, c.MeasureWeeks, c.Metrics, c.onNet = 1, 2, reg, onNet
			res, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			return alive(res), alive(res.Flight), alive(res.Cfg.Scenario.Schedule)
		}
	}
	workload := func(v Variant) row {
		return func(reg *trace.Registry, onNet func(*rdcn.Network)) (func() bool, func() bool, func() bool) {
			res, err := RunWorkload(WorkloadConfig{Variant: v, WarmupWeeks: 1, MeasureWeeks: 2, Metrics: reg, onNet: onNet})
			if err != nil {
				t.Fatal(err)
			}
			return alive(res), alive(res.Flight), alive(res.Cfg.Scenario.Schedule)
		}
	}
	rows := map[string]row{"tdtcp+nloss": hybrid(RunConfig{Variant: TDTCP, Fault: &nloss})}
	for _, v := range []Variant{Cubic, DCTCP, ReTCP, ReTCPDyn, TDTCP, MPTCP} {
		rows[string(v)] = hybrid(RunConfig{Variant: v})
		if CheckVariant(v, 0, true) == nil {
			rows["workload_"+string(v)] = workload(v)
		}
	}
	for name, run := range rows {
		dropSpareMem()
		reg := trace.NewRegistry()
		probes := map[string]func() bool{
			"RTT histogram":         alive(reg.Hist("tcp.rtt_tdn0_ns")),
			"deadman-lag histogram": alive(reg.Hist("tdtcp.deadman_lag_ns")),
		}
		probes["result"], probes["flight recorder"], probes["schedule"] = run(reg, func(n *rdcn.Network) { probes["network"] = alive(n) })
		if len(parkedFlows()) == 0 {
			t.Fatalf("%s: the run handed on no endpoints", name)
		}
		runtime.GC()
		runtime.GC()
		for what, live := range probes {
			if live() {
				t.Errorf("%s: the spare memory keeps the finished run's %s alive", name, what)
			}
		}
	}
	t.Logf("%d runs handed their memory back with their flows parked: each one's network, result, flight recorder, schedule and histograms were collected", len(rows))
}
