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
// JSON. All three constants were regenerated when every run moved onto one
// plain sim.Loop (CHANGES.md, PR 21, says where each trace first diverged from
// the bytes before: a notification's jitter, a notification verdict, a
// notification's jitter). A change that moves any constant changed what a run
// emits, and has to say why.
//
// A metric added after a constant was generated is listed in its case's
// added and cut out of the metrics JSON before hashing, so the constant keeps
// vouching for every byte that existed when it was taken.
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
		{"hybrid_tdtcp", "17a951af53d164403daa2256ab5495387fb0c7533ea5b400584969fcb7eaa01d", nil, func(tr *trace.Tracer, reg *trace.Registry) error {
			_, err := Run(RunConfig{Variant: TDTCP, Flows: 4, WarmupWeeks: 1, MeasureWeeks: 2,
				Tracer: tr, Metrics: reg})
			return err
		}},
		{"hybrid_cubic_faulted", "303f8b0ce830d08926df3126e6b776a4c651ebb00ee9fa0161e1a5be28edd65e", nil, func(tr *trace.Tracer, reg *trace.Registry) error {
			_, err := Run(RunConfig{Variant: Cubic, Flows: 4, WarmupWeeks: 1, MeasureWeeks: 2,
				Fault: &plan, Invariants: true, Tracer: tr, Metrics: reg})
			return err
		}},
		{"rotor4_websearch", "8ed02e96935f3f1bde26a1fbc9d70406ccdfbadc321ed19ee84490d3c48f04b8", nil, func(tr *trace.Tracer, reg *trace.Registry) error {
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
