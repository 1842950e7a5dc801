package serve

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// tinySpec is a real simulation small enough for a unit test: two flows over
// the paper's two-rack hybrid, one warmup and one measurement week.
func tinySpec() *Spec {
	return &Spec{Kind: KindRun, Variant: "tdtcp", Flows: 2,
		WarmupWeeks: 1, MeasureWeeks: 1, Seed: 7}
}

// TestDefaultRunnerEndToEnd drives a real simulation through the pool and
// checks the outcome is a sane paper run.
func TestDefaultRunnerEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownOrFail(t, s)

	j, disp, err := s.Submit(tinySpec())
	if err != nil || disp != DispAccepted {
		t.Fatalf("submit: disp=%q err=%v", disp, err)
	}
	waitTerminal(t, j)
	v := s.View(j, true)
	if v.State != StateDone {
		t.Fatalf("state=%q err=%q", v.State, v.Error)
	}
	out := v.Outcome
	// Short windows can overshoot the steady-state optimum (warmup-queued
	// bytes drain into the measurement week), so bound loosely.
	if out.GoodputGbps <= 0 || out.GoodputGbps > 2*out.OptimalGbps {
		t.Fatalf("goodput %v outside (0, 2x optimal %v]", out.GoodputGbps, out.OptimalGbps)
	}
	if out.TDTCPSwitches == 0 {
		t.Fatal("a tdtcp run with zero TDN switches")
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(out.Metrics, &metrics); err != nil {
		t.Fatalf("outcome metrics not JSON: %v", err)
	}
	if metrics.Counters["sim.events_fired"] == 0 {
		t.Fatal("outcome metrics missing sim.events_fired")
	}
}

// TestDefaultRunnerDeterministicAcrossServers is the cache-soundness
// argument made empirical: two independent servers running the same
// normalized spec must produce byte-identical outcomes.
func TestDefaultRunnerDeterministicAcrossServers(t *testing.T) {
	outcomes := make([]json.RawMessage, 2)
	for i := range outcomes {
		s := New(Config{Workers: 1})
		j, _, err := s.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		v := s.View(j, true)
		if v.State != StateDone {
			t.Fatalf("server %d: state=%q err=%q", i, v.State, v.Error)
		}
		b, err := json.Marshal(v.Outcome)
		if err != nil {
			t.Fatal(err)
		}
		outcomes[i] = b
		shutdownOrFail(t, s)
	}
	if string(outcomes[0]) != string(outcomes[1]) {
		t.Fatalf("same spec, different outcomes across servers:\n%s\n%s", outcomes[0], outcomes[1])
	}
}

// TestDefaultRunnerWorkloadKind covers the kind=workload path end to end.
func TestDefaultRunnerWorkloadKind(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownOrFail(t, s)
	j, _, err := s.Submit(&Spec{Kind: KindWorkload, Variant: "cubic",
		WarmupWeeks: 1, MeasureWeeks: 1, Seed: 3, MaxFlows: 64})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	v := s.View(j, true)
	if v.State != StateDone {
		t.Fatalf("state=%q err=%q", v.State, v.Error)
	}
	if v.Outcome.FlowsStarted == 0 || v.Outcome.FlowsCompleted == 0 {
		t.Fatalf("workload outcome: %+v", v.Outcome)
	}
	if v.Outcome.MedianFCTUs <= 0 {
		t.Fatalf("median FCT %v, want > 0", v.Outcome.MedianFCTUs)
	}
}

// TestDefaultRunnerDeadlineCancelsRealRun: a deadline far shorter than the
// simulation interrupts it through the stop seam and the job fails with a
// deadline error — the service-level face of the byte-identical-prefix
// property proven in the experiments package tests.
func TestDefaultRunnerDeadlineCancelsRealRun(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownOrFail(t, s)
	spec := tinySpec()
	spec.Flows = 8
	spec.MeasureWeeks = 400 // minutes of wall time if it ran out
	spec.DeadlineMS = 50
	j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	waitTerminal(t, j)
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("deadline took %v to bite", d)
	}
	v := s.View(j, false)
	if v.State != StateFailed || !strings.Contains(v.Error, "deadline exceeded") {
		t.Fatalf("state=%q err=%q, want deadline failure", v.State, v.Error)
	}
}
