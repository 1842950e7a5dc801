package tdtcp

// Benchmark harness: one benchmark per evaluation figure of the paper (see
// DESIGN.md §4 for the index), each regenerating that figure's series and
// reporting its key metric, plus microbenchmarks for the mechanisms the
// paper's §4 performance claims rest on (wire codec, per-TDN state switch).
//
// Figure benches run the Quick configuration (2 warmup + 3 measured optical
// weeks) per iteration so `go test -bench=.` completes in seconds; run
// cmd/tdsim for full-scale reproductions.

import (
	"io"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/bench"
	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/experiments"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
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

// BenchmarkSegmentSerialize measures the Fig. 5 wire encoder (§4's 100-Gbps
// claim needs sub-µs per-packet costs).
func BenchmarkSegmentSerialize(b *testing.B) {
	s := &packet.Segment{
		Src: 1, Dst: 2, TTL: 64, Proto: packet.ProtoTCP,
		TCP: packet.TCPHeader{
			Flags: packet.FlagACK | packet.FlagPSH, PayloadLen: 8960,
			TDPresent: true, TDFlags: packet.TDFlagData | packet.TDFlagACK, DataTDN: 1,
		},
	}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = s.Serialize(buf[:0])
	}
}

// BenchmarkSegmentParse measures the reusable-decode path.
func BenchmarkSegmentParse(b *testing.B) {
	s := &packet.Segment{
		Src: 1, Dst: 2, TTL: 64, Proto: packet.ProtoTCP,
		TCP: packet.TCPHeader{
			Flags: packet.FlagACK, TDPresent: true, TDFlags: packet.TDFlagACK, AckTDN: 1,
			SACK: []packet.SACKBlock{{Start: 100, End: 200}, {Start: 300, End: 400}},
		},
	}
	wire := s.Serialize(nil)
	var dst packet.Segment
	dst.TCP.SACK = make([]packet.SACKBlock, 0, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := packet.Parse(wire, &dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTDNStateSwitch measures the per-TDN state swap on a notification
// (§4.3: the paper optimizes this to support µs-scale reconfiguration).
func BenchmarkTDNStateSwitch(b *testing.B) {
	loop := sim.NewLoop(1)
	pol := core.New(2, core.Options{})
	c := tcp.NewConn(loop, tcp.Config{NumTDNs: 2, Policy: pol}, func(*packet.Segment) {})
	_ = c
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pol.OnNotify(i%2, 0)
	}
}

// BenchmarkOptimalSeries512 computes the reference series of the documented
// long run (Run's exact arguments for a 3+512-week hybrid window at the 5 µs
// default cadence): 143 361 samples over ≈3 600 slots in one pass, a few
// milliseconds. Under ci.sh's -benchtime 1x smoke it is the visible alarm for
// the per-sample re-walk from t = 0, which takes seconds here.
func BenchmarkOptimalSeries512(b *testing.B) {
	sc := experiments.Hybrid()
	from := sim.Time(3 * sc.Schedule.Week())
	to := from.Add(512 * sc.Schedule.Week())
	b.ReportAllocs()
	samples := 0
	for i := 0; i < b.N; i++ {
		samples = workload.OptimalSeries(sc.Schedule, sc.TDNs, from, to, 5*sim.Microsecond).Normalize().Len()
	}
	b.ReportMetric(float64(samples), "samples")
}

// BenchmarkEventLoop measures raw simulator event throughput. The body lives
// in internal/bench so cmd/tdbench tracks the same measurement.
func BenchmarkEventLoop(b *testing.B) { bench.EventLoop(b) }

// BenchmarkSimulatedSecond measures wall time per simulated optical week of
// the full 16-flow TDTCP experiment (events, transport, wire codec). This is
// also the tracing-disabled baseline for BenchmarkSimulatedWeekTraced: with
// no tracer attached every instrumentation site reduces to a nil check, so
// the two should differ only by the enabled tracer's encoding cost.
func BenchmarkSimulatedWeek(b *testing.B) { bench.SimulatedWeek(b) }

// BenchmarkSimulatedWeekSteady is BenchmarkSimulatedWeek with construction
// and ramp-up excluded: the fleet is built once, warmed for one optical week,
// and each iteration advances one more week. The steady-state hot path is
// required to be allocation-free (0 allocs/op, gated by ci.sh).
func BenchmarkSimulatedWeekSteady(b *testing.B) { bench.SimulatedWeekSteady(b) }

// BenchmarkSimulatedWeekFlight is BenchmarkSimulatedWeek with the always-on
// flight recorder attached (the experiments.Run default): the per-event ring
// write is the only added cost, budgeted at <5% events/sec with a zero
// allocs/op delta.
func BenchmarkSimulatedWeekFlight(b *testing.B) { bench.SimulatedWeekFlight(b) }

// BenchmarkSimulatedWeekSequential runs the 8-rack rotor TDTCP experiment
// through the engine with a single worker — the baseline for the sharded
// speedup ratio tracked in BENCH_simcore.json.
func BenchmarkSimulatedWeekSequential(b *testing.B) { bench.SimulatedWeekSequential(b) }

// BenchmarkSimulatedWeekSharded is the same experiment on four event-loop
// workers. The parity suite proves its output byte-identical to the
// sequential twin; this benchmark measures what the workers buy in wall
// time (tdbench -gate holds the ratio >= 1.5x on machines with >= 4 cores).
func BenchmarkSimulatedWeekSharded(b *testing.B) { bench.SimulatedWeekSharded(b) }

// BenchmarkSimulatedWeekTraced is BenchmarkSimulatedWeek with a full-mask
// JSONL tracer attached (writing to io.Discard), measuring the enabled-path
// tracing overhead on the end-to-end experiment.
func BenchmarkSimulatedWeekTraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loop := NewLoop(int64(i + 1))
		tr := NewTracer(io.Discard, TraceAll)
		loop.SetTracer(tr)
		cfg := DefaultNetworkConfig()
		net, err := NewNetwork(loop, cfg)
		if err != nil {
			b.Fatal(err)
		}
		net.SetTracer(tr)
		for f := 0; f < cfg.HostsPerRack; f++ {
			fl, err := BuildFlow(loop, net, f, TDTCP, FlowOptions{})
			if err != nil {
				b.Fatal(err)
			}
			fl.SetTracer(tr, f)
			fl.Start(-1)
		}
		end := Time(cfg.Schedule.Week())
		net.Start(end)
		loop.RunUntil(end)
		if err := tr.Flush(); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkTracerRing measures the enabled emit path into the in-memory ring
// (no encoding).
func BenchmarkTracerRing(b *testing.B) {
	tr := NewRingTracer(1024, TraceAll)
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

var _ = experiments.AllVariants // keep the import for documentation links
