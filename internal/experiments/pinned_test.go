package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/fault"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// TestPinnedBytes is the "same behaviour, byte for byte" gate for refactors
// of the run path: three small scenarios covering both entry points, the
// fault injector and the invariant checker, each hashed over its JSONL trace
// (everything but the per-event-loop CatSim chatter) followed by its metrics
// JSON. The two hybrid constants were generated at the commit before the run
// harness was extracted. The rotor constant was regenerated when completed
// flows began leaving the mux notify sets and a finished sender stopped
// probing: against the bytes before, that trace only loses records — the
// tdn_switch/cwnd_swap of flows already retired and the tlp of flows already
// done — and the metrics lose the events that re-armed those probes. A change
// that moves any constant changed what a run emits, and has to say why.
//
// A metric added since a constant was generated is listed in its case's
// added and cut out of the metrics JSON before hashing, so the constant keeps
// vouching for every byte that existed when it was taken: the rotor case
// shows that releasing finished flows changed no trace record and no other
// metric.
func TestPinnedBytes(t *testing.T) {
	plan, err := fault.Parse("drop=0.01,nloss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		want  string
		added []string
		run   func(tr *trace.Tracer, reg *trace.Registry) error
	}{
		{"hybrid_tdtcp", "20c9c1d9e9e66eed35e72b84061e176086b721ef799ccbfdd05ac2699c198022", nil, func(tr *trace.Tracer, reg *trace.Registry) error {
			_, err := Run(RunConfig{Variant: TDTCP, Flows: 4, WarmupWeeks: 1, MeasureWeeks: 2,
				Tracer: tr, Metrics: reg})
			return err
		}},
		{"hybrid_cubic_faulted", "7936d23b9a444546a645b464297a6cc71a0c328c78ba8c58a79d63b602ef8e15", nil, func(tr *trace.Tracer, reg *trace.Registry) error {
			_, err := Run(RunConfig{Variant: Cubic, Flows: 4, WarmupWeeks: 1, MeasureWeeks: 2,
				Fault: &plan, Invariants: true, Tracer: tr, Metrics: reg})
			return err
		}},
		{"rotor4_websearch", "2e409c81f629646ef9077a50824cd94811a950b49189490e7592047fafc50cb5",
			[]string{"workload.flows_released", "workload.late_segs", "workload.ports_bound_max"}, func(tr *trace.Tracer, reg *trace.Registry) error {
				_, err := RunWorkload(WorkloadConfig{Variant: TDTCP, Scenario: MultiRack(4), Load: 0.3,
					WarmupWeeks: 1, MeasureWeeks: 2, Tracer: tr, Metrics: reg})
				return err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			tr := trace.New(&buf, trace.CatAll&^trace.CatSim)
			reg := trace.NewRegistry()
			if err := tc.run(tr, reg); err != nil {
				t.Fatal(err)
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("traced run produced no events")
			}
			var metrics bytes.Buffer
			if err := reg.WriteJSON(&metrics); err != nil {
				t.Fatal(err)
			}
			buf.Write(withoutMetrics(t, metrics.Bytes(), tc.added))
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("trace+metrics bytes changed (%d bytes):\n got %s\nwant %s", buf.Len(), got, tc.want)
			}
		})
	}
}

// withoutMetrics cuts the named counters and gauges out of a registry's JSON,
// leaving the bytes WriteJSON would have produced had they never been set.
// Each name must be present.
func withoutMetrics(t *testing.T, js []byte, names []string) []byte {
	for _, name := range names {
		re := regexp.MustCompile(`,?"` + regexp.QuoteMeta(name) + `":[^,}]*`)
		if len(re.FindAll(js, -1)) != 1 {
			t.Fatalf("metric %s is not in the registry exactly once", name)
		}
		js = re.ReplaceAll(js, nil)
	}
	return bytes.ReplaceAll(js, []byte("{,"), []byte("{"))
}
