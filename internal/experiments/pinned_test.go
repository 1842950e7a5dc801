package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/fault"
	"github.com/rdcn-net/tdtcp/internal/stats"
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

// figureBytes is everything a figure hands a reader: the rendered summary,
// then every plottable series as tdsim -csv writes it.
func figureBytes(fig *Figure) []byte {
	var b bytes.Buffer
	b.WriteString(fig.Render())
	for _, group := range [][]*stats.Series{fig.Seq, fig.VOQ, fig.CDF} {
		for _, s := range group {
			b.WriteString(s.CSV())
		}
	}
	return b.Bytes()
}

// TestFigureBytesPinned is TestPinnedBytes for what a reader of a result sees:
// the figures that plot a Run's series and print its VOQ mean/max at their
// default size (3+20 weeks, so the series Run keeps are a strict prefix of the
// measurement window and the means run past them), the two rotor figures at
// -quick size, and the one scalar RunWorkload takes from its sampler. The
// constants were taken while Run still returned whole-window series and the
// figures windowed them afterwards; a change that moves one changed a plotted
// point or a printed number.
func TestFigureBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		id, want string
		opts     Options
	}{
		{"fig2", "f28bca66c721f948be652560f1c447a700e020080a121a749c8440377e681afa", Options{}},
		{"fig7", "d73fa23fffe2be48f4c657820c20514a9da0f15dd1f138f294382a6094566659", Options{}},
		{"fig13", "41fa1d717ee94ef428fc7b682ce27298cb58747bc037be0e9dde60a7c620e1bd", Options{}},
		{"fig14", "dc3f0748fda1a903bcb04820536b480cc1a45f12bd15305a660eb6317165a743", Options{}},
		{"rotor", "0b2d76a036f059bbb8b8247d542f735bcf63681e61387d52cc91027c42aaef24", Options{Quick: true}},
		{"multirack", "8d8a095326f75ff35494c5ce0a46be96271f5a742972688a0246ea736dd13850", Options{Quick: true}},
	} {
		t.Run(tc.id, func(t *testing.T) {
			fig, err := Figures[tc.id](tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			out := figureBytes(fig)
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("figure bytes changed (%d bytes):\n got %s\nwant %s", len(out), got, tc.want)
			}
		})
	}
	t.Run("workload_mean_voq", func(t *testing.T) {
		res, err := RunWorkload(rotorChurn(20))
		if err != nil {
			t.Fatal(err)
		}
		const want = 326.18425550368613
		if res.MeanVOQ != want {
			t.Errorf("MeanVOQ = %v, want %v", res.MeanVOQ, want)
		}
	})
}
