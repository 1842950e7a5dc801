package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rdcn-net/tdtcp/internal/experiments"
)

// TestNormalizeSizeCeilings: every size field is admitted at its ceiling and
// refused one past it, and the rack count additionally at its floor.
func TestNormalizeSizeCeilings(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec *Spec
		ok   bool
	}{
		{"run racks 0", &Spec{Racks: 0}, true},
		{"run racks 1", &Spec{Racks: 1}, false},
		{"run racks 2", &Spec{Racks: 2}, true},
		{"run racks max", &Spec{Racks: maxRacks}, true},
		{"run racks max+1", &Spec{Racks: maxRacks + 1}, false},
		{"run racks 20000", &Spec{Racks: 20000}, false},
		{"workload racks 2", &Spec{Kind: KindWorkload, Racks: 2}, false},
		{"workload racks 3", &Spec{Kind: KindWorkload, Racks: 3}, true},
		{"workload racks max", &Spec{Kind: KindWorkload, Racks: maxRacks}, true},
		{"workload racks max+1", &Spec{Kind: KindWorkload, Racks: maxRacks + 1}, false},
		{"flows max", &Spec{Flows: maxRunFlows}, true},
		{"flows max+1", &Spec{Flows: maxRunFlows + 1}, false},
		{"hosts max", &Spec{Kind: KindWorkload, Hosts: maxHosts}, true},
		{"hosts max+1", &Spec{Kind: KindWorkload, Hosts: maxHosts + 1}, false},
		{"warmup_weeks max", &Spec{WarmupWeeks: maxWarmupWeeks}, true},
		{"warmup_weeks max+1", &Spec{WarmupWeeks: maxWarmupWeeks + 1}, false},
		{"measure_weeks max", &Spec{Kind: KindWorkload, MeasureWeeks: maxMeasureWeeks}, true},
		{"measure_weeks max+1", &Spec{Kind: KindWorkload, MeasureWeeks: maxMeasureWeeks + 1}, false},
		{"max_flows max", &Spec{Kind: KindWorkload, MaxFlows: maxWorkloadFlows}, true},
		{"max_flows max+1", &Spec{Kind: KindWorkload, MaxFlows: maxWorkloadFlows + 1}, false},
		{"deadline_ms max", &Spec{DeadlineMS: maxDeadlineMS}, true},
		{"deadline_ms max+1", &Spec{DeadlineMS: maxDeadlineMS + 1}, false},
		{"deadline_ms overflowing", &Spec{DeadlineMS: 1 << 62}, false},
		{"deadline_ms negative", &Spec{DeadlineMS: -1}, false},
	} {
		if _, err := tc.spec.Normalize(); (err == nil) != tc.ok {
			t.Errorf("%s: Normalize error = %v, want admitted = %v", tc.name, err, tc.ok)
		}
	}
}

// TestMaxFlowsCeilingIsTheSimulators: a spec at the max_flows ceiling is a run
// the simulator takes: it gets past RunWorkload's own checks (and then stops
// at the first poll of the seam).
func TestMaxFlowsCeilingIsTheSimulators(t *testing.T) {
	n, err := (&Spec{Kind: KindWorkload, MaxFlows: maxWorkloadFlows}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg := n.workloadConfig()
	cfg.Stop = func() bool { return true }
	if _, err := experiments.RunWorkload(cfg); !errors.Is(err, experiments.ErrCancelled) {
		t.Fatalf("RunWorkload at the max_flows ceiling: %v, want a cancelled run", err)
	}
}

// TestRacksCeilingIsTheSimulators: the racks ceiling restates where the
// simulator's one-byte TDN ids run out, so the largest admitted fabric must
// build (and stop at the first poll of the seam), and one rack more, handed
// to the simulator behind Normalize's back, must be what it refuses:
// racks:255 used to pass Normalize and fail milliseconds into the job.
func TestRacksCeilingIsTheSimulators(t *testing.T) {
	n, err := (&Spec{Kind: KindWorkload, Racks: maxRacks, Hosts: 1}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg := n.workloadConfig()
	cfg.Stop = func() bool { return true }
	if _, err := experiments.RunWorkload(cfg); !errors.Is(err, experiments.ErrCancelled) {
		t.Fatalf("RunWorkload at the racks ceiling: %v, want a cancelled run", err)
	}
	n.Racks = maxRacks + 1
	cfg = n.workloadConfig()
	cfg.Stop = func() bool { return true }
	if _, err := experiments.RunWorkload(cfg); err == nil || errors.Is(err, experiments.ErrCancelled) {
		t.Fatalf("RunWorkload one rack past the ceiling: %v, want the simulator's refusal", err)
	}
}

// TestHTTPOversizedSpecIs400: the spec that used to hold a worker for minutes
// building a 20000-rack rotor is refused at the door, at once, as the
// client's error, and never becomes a job.
func TestHTTPOversizedSpecIs400(t *testing.T) {
	var ran atomic.Int32
	s, ts := httpServer(t, Config{Runner: func(req *Request) (*Outcome, error) {
		ran.Add(1)
		return okRunner(req)
	}})
	start := time.Now()
	code, m := doJSON(t, "POST", ts.URL+"/jobs", `{"racks":20000}`)
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("refusing the spec took %v, want < 100ms", took)
	}
	if code != http.StatusBadRequest {
		t.Fatalf("oversized spec: code %d %v, want 400", code, m)
	}
	if n := len(s.Jobs()); n != 0 || ran.Load() != 0 {
		t.Fatalf("oversized spec became %d job(s), %d run(s)", n, ran.Load())
	}
}

// FuzzSpecNormalize: whatever JSON a client sends, Normalize returns a spec
// or an error and never panics; an admitted spec is a fixed point of
// Normalize (job views hand normalized specs back, and resubmitting one must
// land on the same cache entry), its key is stable, and every size is inside
// its range.
func FuzzSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"variant":"cubic","fault":"drop=0.01,nloss=0.1","invariants":true}`,
		`{"kind":"workload"}`,
		`{"variant":"dctcp","racks":4,"flows":8}`,
		`{"racks":20000}`,
		`{"racks":1}`,
		`{"racks":255,"flows":512,"warmup_weeks":100000,"measure_weeks":10000}`,
		`{"kind":"workload","racks":255,"hosts":256,"max_flows":64512,"load":1}`,
		`{"kind":"workload","max_flows":64513}`,
		`{"kind":"run","variant":"cubic","flows":8,"warmup_weeks":100000,"measure_weeks":1,"seed":3}`,
		`{"kind":"run","schedule":"6x(0:180us,-:20us),1:180us,-:20us","deadline_ms":5000}`,
		`{"flows":-1}`,
		`{"kind":"nope"}`,
		`{"racks":254}`,
		`{"kind":"workload","racks":255}`,
		`{"deadline_ms":86400000}`,
		`{"deadline_ms":9223372036854775807}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		once, err := spec.Normalize()
		if err != nil {
			return
		}
		twice, err := once.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v refused: %v", *once, err)
		}
		if *once != *twice {
			t.Fatalf("Normalize is not idempotent:\n once %+v\ntwice %+v", *once, *twice)
		}
		if k := once.Key(); k != twice.Key() || k != once.Key() || len(k) != 64 {
			t.Fatalf("unstable key %q for %+v", k, *once)
		}
		minRacks := 2
		if once.Kind == KindWorkload {
			minRacks = 3
		}
		if (once.Racks != 0 || once.Kind == KindWorkload) && (once.Racks < minRacks || once.Racks > maxRacks) {
			t.Fatalf("admitted racks %d for kind %s", once.Racks, once.Kind)
		}
		for name, v := range map[string][2]int{
			"flows": {once.Flows, maxRunFlows}, "hosts": {once.Hosts, maxHosts},
			"warmup_weeks": {once.WarmupWeeks, maxWarmupWeeks}, "measure_weeks": {once.MeasureWeeks, maxMeasureWeeks},
			"max_flows": {once.MaxFlows, maxWorkloadFlows},
		} {
			if v[0] < 0 || v[0] > v[1] {
				t.Fatalf("admitted %s %d, ceiling %d", name, v[0], v[1])
			}
		}
		if once.DeadlineMS < 0 || once.DeadlineMS > maxDeadlineMS {
			t.Fatalf("admitted deadline_ms %d, ceiling %d", once.DeadlineMS, maxDeadlineMS)
		}
	})
}
