package tdtcp

// Benchmark harness: one benchmark per evaluation figure of the paper (see
// DESIGN.md §4 for the index), each regenerating that figure's series and
// reporting its key metric, plus a handful of microbenchmarks that ci.sh's
// -benchtime 1x smoke keeps alive as alarms: the per-TDN state switch the
// paper's §4 performance claim rests on, the long run's reference series, the
// tracer's per-site cost, and one simulated week on the 8-rack rotor.
//
// Tracked numbers do not come from here. The event heap, pipes and VOQs, the
// wire codec, tcp input, an rdcn week, Run and RunWorkload, tdserve round
// trips and the observability overheads are each a rung of the benchmark/
// ladder (`go run ./benchmark -trace 1`), measured there and nowhere else.
//
// Figure benches run the Quick configuration (2 warmup + 3 measured optical
// weeks) per iteration so `go test -bench=.` completes in seconds; run
// cmd/tdsim for full-scale reproductions.

import (
	"io"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/workload"
)

func benchFigure(b *testing.B, id string, metric func(*Figure) (string, float64)) {
	b.Helper()
	var last *Figure
	for i := 0; i < b.N; i++ {
		fig, err := Figures[id](FigureOptions{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	if last != nil && metric != nil {
		name, v := metric(last)
		b.ReportMetric(v, name)
	}
}

func goodputOf(fig *Figure, label string) float64 {
	for _, r := range fig.Summary {
		if r.Label == label {
			return r.GoodputGbps
		}
	}
	return 0
}

// BenchmarkFig2SequenceGraph regenerates Figure 2 (CUBIC and MPTCP vs the
// optimal/packet-only references on the hybrid RDCN).
func BenchmarkFig2SequenceGraph(b *testing.B) {
	benchFigure(b, "fig2", func(f *Figure) (string, float64) {
		return "cubic_gbps", goodputOf(f, "cubic")
	})
}

// BenchmarkFig7aThroughput regenerates Figure 7a (all variants, bandwidth +
// latency difference).
func BenchmarkFig7aThroughput(b *testing.B) {
	benchFigure(b, "fig7", func(f *Figure) (string, float64) {
		return "tdtcp_gbps", goodputOf(f, "tdtcp")
	})
}

// BenchmarkFig7bVOQ regenerates Figure 7b (ToR VOQ occupancy) and reports
// TDTCP's mean occupancy — the paper's "lowest of all variants" claim.
func BenchmarkFig7bVOQ(b *testing.B) {
	benchFigure(b, "fig7", func(f *Figure) (string, float64) {
		for _, s := range f.VOQ {
			if s.Label == "tdtcp" {
				return "tdtcp_voq_mean", s.Mean()
			}
		}
		return "tdtcp_voq_mean", 0
	})
}

// BenchmarkFig8aThroughput regenerates Figure 8a (bandwidth difference only).
func BenchmarkFig8aThroughput(b *testing.B) {
	benchFigure(b, "fig8", func(f *Figure) (string, float64) {
		return "cubic_gbps", goodputOf(f, "cubic")
	})
}

// BenchmarkFig8bVOQ regenerates Figure 8b's VOQ series.
func BenchmarkFig8bVOQ(b *testing.B) {
	benchFigure(b, "fig8", func(f *Figure) (string, float64) {
		for _, s := range f.VOQ {
			if s.Label == "tdtcp" {
				return "tdtcp_voq_mean", s.Mean()
			}
		}
		return "tdtcp_voq_mean", 0
	})
}

// BenchmarkFig9LatencyOnly regenerates Figure 9 (latency difference only at
// 100 Gbps; TDTCP and CUBIC should be nearly identical).
func BenchmarkFig9LatencyOnly(b *testing.B) {
	benchFigure(b, "fig9", func(f *Figure) (string, float64) {
		return "tdtcp_over_cubic", goodputOf(f, "tdtcp") / goodputOf(f, "cubic")
	})
}

// BenchmarkFig10Reordering regenerates Figure 10 (per-optical-day reordering
// and retransmission CDFs).
func BenchmarkFig10Reordering(b *testing.B) {
	benchFigure(b, "fig10", func(f *Figure) (string, float64) {
		for _, r := range f.Summary {
			if r.Label == "tdtcp" {
				return "tdtcp_events_p90", r.Extra["events_p90"]
			}
		}
		return "tdtcp_events_p90", 0
	})
}

// BenchmarkFig11Notification regenerates Figure 11 (notification
// optimizations on vs off).
func BenchmarkFig11Notification(b *testing.B) {
	benchFigure(b, "fig11", func(f *Figure) (string, float64) {
		return "optimized_gain", goodputOf(f, "optimized")/goodputOf(f, "unoptimized") - 1
	})
}

// BenchmarkFig13VOQHybrid regenerates appendix Figure 13.
func BenchmarkFig13VOQHybrid(b *testing.B) {
	benchFigure(b, "fig13", func(f *Figure) (string, float64) {
		return "cubic_voq_mean", f.Summary[0].Extra["voq_mean"]
	})
}

// BenchmarkFig14VOQLatencyOnly regenerates appendix Figure 14.
func BenchmarkFig14VOQLatencyOnly(b *testing.B) {
	benchFigure(b, "fig14", nil)
}

// BenchmarkHeadlineThroughput regenerates the abstract's headline comparison
// and reports the TDTCP:CUBIC ratio (paper: 1.24).
func BenchmarkHeadlineThroughput(b *testing.B) {
	benchFigure(b, "headline", func(f *Figure) (string, float64) {
		return "tdtcp_over_cubic", goodputOf(f, "tdtcp") / goodputOf(f, "cubic")
	})
}

// BenchmarkAblation regenerates the TDTCP mechanism ablation.
func BenchmarkAblation(b *testing.B) {
	benchFigure(b, "ablation", func(f *Figure) (string, float64) {
		return "filter_gain", goodputOf(f, "full")/goodputOf(f, "no-reorder-filter") - 1
	})
}

// --- microbenchmarks -------------------------------------------------------

// BenchmarkTDNStateSwitch measures the per-TDN state swap on a notification
// (§4.3: the paper optimizes this to support µs-scale reconfiguration).
func BenchmarkTDNStateSwitch(b *testing.B) {
	pol := NewTDTCPPolicy(2, TDTCPOptions{})
	NewConn(NewLoop(1), ConnConfig{NumTDNs: 2, Policy: pol}, func(*Segment) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pol.OnNotify(i % 2)
	}
}

// BenchmarkOptimalSeries512 computes the reference series of the documented
// long run (Run's exact arguments for a 3+512-week hybrid window at the 5 µs
// default cadence): 143 361 samples over ≈3 600 slots in one pass, a few
// milliseconds. Under ci.sh's -benchtime 1x smoke it is the visible alarm for
// the per-sample re-walk from t = 0, which takes seconds here.
func BenchmarkOptimalSeries512(b *testing.B) {
	sc := HybridScenario()
	from := sim.Time(3 * sc.Schedule.Week())
	to := from.Add(512 * sc.Schedule.Week())
	b.ReportAllocs()
	samples := 0
	for i := 0; i < b.N; i++ {
		samples = workload.OptimalSeries(sc.Schedule, sc.TDNs, from, to, 5*sim.Microsecond).Normalize().Len()
	}
	b.ReportMetric(float64(samples), "samples")
}

// BenchmarkSimulatedWeekRotor8 runs one 1+1-week TDTCP experiment on the
// 8-rack rotor fabric through Run and reports events/op.
func BenchmarkSimulatedWeekRotor8(b *testing.B) {
	b.ReportAllocs()
	var fired int64
	for i := 0; i < b.N; i++ {
		m := NewMetricsRegistry()
		_, err := Run(RunConfig{
			Variant: TDTCP, Scenario: MultiRackScenario(8),
			Flows: 16, WarmupWeeks: 1, MeasureWeeks: 1, Seed: int64(i + 1),
			Metrics: m,
		})
		if err != nil {
			b.Fatal(err)
		}
		fired += m.Counter("sim.events_fired")
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}

// BenchmarkTracerDisabled measures the per-event-site cost with tracing off:
// a nil *Tracer receiver, where Enabled is a nil check plus a mask test.
// This is the overhead every instrumentation point pays in production runs.
func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Enabled(TraceTCP) {
			tr.Emit(TraceTCP, int64(i), "retransmit", 1, 0, 1.0, 2.0, "")
		}
	}
}

// BenchmarkTracerJSONL measures the enabled emit path including JSONL
// encoding, streaming to io.Discard.
func BenchmarkTracerJSONL(b *testing.B) {
	tr := NewTracer(io.Discard, TraceAll)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Enabled(TraceTCP) {
			tr.Emit(TraceTCP, int64(i), "retransmit", 1, 0, 1.0, 2.0, "")
		}
	}
	if err := tr.Flush(); err != nil {
		b.Fatal(err)
	}
}
