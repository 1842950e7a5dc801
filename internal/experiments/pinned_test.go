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

// TestPinnedBytes is the "same behaviour, byte for byte" gate for refactors of
// the run path: four small scenarios, each hashed over its JSONL trace
// (everything but the per-event-loop CatSim chatter) followed by its metrics
// JSON. hybrid_tdtcp is a plain Run on the two-rack hybrid;
// hybrid_cubic_faulted adds the fault injector (drops and notification loss)
// and the invariant checker; rotor4_websearch is RunWorkload's open-loop flow
// life cycle on a 4-rack rotor; rotor4_tdtcp_flap_drift is a checked Run on a
// rotor whose drift steps the evaluation time backwards at week boundaries and
// whose flaps darken a day with no event of its own. A change that moves any
// constant changed what a run emits, and has to say why; CHANGES.md records
// every move with its first divergent record.
//
// A metric added after a constant was generated is listed in its case's
// added and cut out of the metrics JSON before hashing, so the constant keeps
// vouching for every byte that existed when it was taken.
func TestPinnedBytes(t *testing.T) {
	plan, err := fault.Parse("drop=0.01,nloss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := fault.Parse("flaps=3,drift=7us")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		want  string
		added []string
		run   func(tr *trace.Tracer, reg *trace.Registry) error
	}{
		{"hybrid_tdtcp", "8d9076e3a6c4e18d85a88968db6b78476b63607548d8418fbbedddc3c84d14e2", nil, func(tr *trace.Tracer, reg *trace.Registry) error {
			_, err := Run(RunConfig{Variant: TDTCP, Flows: 4, WarmupWeeks: 1, MeasureWeeks: 2,
				Tracer: tr, Metrics: reg})
			return err
		}},
		{"hybrid_cubic_faulted", "b6e0ceb82b3d822990c3649cf2d7cb52d656d75db7b94c9f381541148b3bb198", nil, func(tr *trace.Tracer, reg *trace.Registry) error {
			_, err := Run(RunConfig{Variant: Cubic, Flows: 4, WarmupWeeks: 1, MeasureWeeks: 2,
				Fault: &plan, Invariants: true, Tracer: tr, Metrics: reg})
			return err
		}},
		{"rotor4_websearch", "00e4c96560102ed0b3af99df3eb702c09eaab26e4e5042a46c8002e8d7ef973f", nil, func(tr *trace.Tracer, reg *trace.Registry) error {
			_, err := RunWorkload(WorkloadConfig{Variant: TDTCP, Scenario: MultiRack(4), Load: 0.3,
				WarmupWeeks: 1, MeasureWeeks: 2, Tracer: tr, Metrics: reg})
			return err
		}},
		{"rotor4_tdtcp_flap_drift", "e2ea382c1c78ba5680bc98d3292a3b02f43878beedae65356436574040556c18", nil, func(tr *trace.Tracer, reg *trace.Registry) error {
			_, err := Run(RunConfig{Variant: TDTCP, Scenario: MultiRack(4), Flows: 8, WarmupWeeks: 1, MeasureWeeks: 3,
				Fault: &fabric, Invariants: true, Tracer: tr, Metrics: reg})
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
// -quick size, and the one scalar RunWorkload takes from its sampler. A change
// that moves one changed a plotted point or a printed number; CHANGES.md
// records every move.
func TestFigureBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		id, want string
		opts     Options
	}{
		{"fig2", "bb4d970dd2421a8b20ccd162240a6e50b45542af22f1f17cfcda1454067179d3", Options{}},
		{"fig7", "ddedd4753cef40df3038e1a2f18b960c764514ed0162f5c4aa8135018916e778", Options{}},
		{"fig13", "41fa1d717ee94ef428fc7b682ce27298cb58747bc037be0e9dde60a7c620e1bd", Options{}},
		{"fig14", "fb1b3e397de255adc0df4176c04cc98ec698a17565a42793327ad2bf644b4c25", Options{}},
		{"rotor", "584070a4cd6ac70ffe23f8e1e72bec2c50e43314def38e1f4268692be09731b6", Options{Quick: true}},
		{"multirack", "e69e027d01b5b3bc7d68b9bb91306db903d5c76a04887a3708557b8bb411ea3e", Options{Quick: true}},
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
		const want = 325.1050993597102
		if res.MeanVOQ != want {
			t.Errorf("MeanVOQ = %v, want %v", res.MeanVOQ, want)
		}
	})
}
