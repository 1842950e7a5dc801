package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/fault"
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

// TestWarmMemoryIsUnobservable: a run on memory another scenario warmed —
// the 8-rack rotor's open-loop workload, or a faulted run under the invariant
// checker — writes the same JSONL trace and metrics bytes and returns the same
// Result as a run on fresh memory, and did take the warmed memory.
func TestWarmMemoryIsUnobservable(t *testing.T) {
	plan, err := fault.Parse("drop=0.01,nloss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	warmers := []struct {
		name string
		run  func() error
	}{
		{"rotor8_websearch", func() error {
			_, err := RunWorkload(WorkloadConfig{Variant: TDTCP, Scenario: MultiRack(8), Hosts: 4, Load: 0.4,
				WarmupWeeks: 1, MeasureWeeks: 4})
			return err
		}},
		{"hybrid_cubic_faulted", func() error {
			_, err := Run(RunConfig{Variant: Cubic, Flows: 4, WarmupWeeks: 1, MeasureWeeks: 2,
				Fault: &plan, Invariants: true})
			return err
		}},
	}
	for _, v := range []Variant{TDTCP, MPTCP} {
		run := func(t *testing.T) (out []byte, res *Result) {
			var buf bytes.Buffer
			tr := trace.New(&buf, trace.CatAll&^trace.CatSim)
			reg := trace.NewRegistry()
			res, err := Run(RunConfig{Variant: v, WarmupWeeks: 1, MeasureWeeks: 3, Tracer: tr, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := reg.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			res.Cfg.Tracer, res.Cfg.Metrics = nil, nil
			return buf.Bytes(), res
		}
		dropSpareMem()
		fresh, freshRes := run(t)
		for _, w := range warmers {
			t.Run(string(v)+"/"+w.name, func(t *testing.T) {
				dropSpareMem()
				if err := w.run(); err != nil {
					t.Fatal(err)
				}
				warm := lastSpare()
				if warm == nil {
					t.Fatal("the warming run handed no memory back")
				}
				got, res := run(t)
				if lastSpare() != warm {
					t.Fatal("the run did not take the warmed memory, or did not hand it back")
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
// identical 3+20-week hybrid Runs takes the loop, frame pool and tcp.Pool the
// first grew, and allocates at most 75 % of what the first did.
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
	if 4*second > 3*first {
		t.Errorf("the second run allocates %d B against the first's %d: more than 75 %%", second, first)
	}
}
