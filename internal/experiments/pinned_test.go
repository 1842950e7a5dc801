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
// notification's jitter). rotor4_websearch moved again when a resent FIN
// stopped going out as one byte of data (its first divergence is a voq_enq 3
// ns earlier, behind a TLP that resent a FIN), and it and hybrid_cubic_faulted
// moved when every frame in a propagation stage became its own loop event:
// same-instant deliveries from different links now fire in arming order
// (DESIGN.md §10). CUBIC's trace is a permutation within equal timestamps;
// the rotor's first diverges at t = 1 871 622 ns, two frames entering rack 2's
// NIC in the other order. hybrid_cubic_faulted moved once more when every flow
// came to be wired through the host muxes: a host without a TDTCP endpoint now
// takes its notification too, so the trace gains the "notify" span ends such
// hosts used to drop (146 records, nothing else moved) and the metrics gain
// their rdcn.notify_lat_ns samples. A change that moves any constant changed
// what a run emits, and has to say why.
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
		{"hybrid_cubic_faulted", "4aa2f80bcebabf8a89bc01af5cac472cc24715e9d92c4c584f7964897e2ba43a", nil, func(tr *trace.Tracer, reg *trace.Registry) error {
			_, err := Run(RunConfig{Variant: Cubic, Flows: 4, WarmupWeeks: 1, MeasureWeeks: 2,
				Fault: &plan, Invariants: true, Tracer: tr, Metrics: reg})
			return err
		}},
		{"rotor4_websearch", "7a52c0c7fa541fc1de87e6510b4ce12cda225d0aa1f3b7893378025ec16a235a", nil, func(tr *trace.Tracer, reg *trace.Registry) error {
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
// figures windowed them afterwards. multirack and workload_mean_voq were
// re-taken when a resent FIN stopped carrying a byte of data, and every one
// but fig13 and multirack when each frame in a propagation stage became its own
// loop event, which reorders same-instant deliveries from different links
// (DESIGN.md §10). A change that moves one changed a plotted point or a
// printed number.
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
		const want = 324.4508303359608
		if res.MeanVOQ != want {
			t.Errorf("MeanVOQ = %v, want %v", res.MeanVOQ, want)
		}
	})
}
