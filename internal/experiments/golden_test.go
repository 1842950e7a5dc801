package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// Golden-figure regression suite: re-runs the headline figures at reduced
// weeks (warmup 2, measure 4 — a few hundred milliseconds of CPU, so it is
// not -short gated) and pins both the qualitative ordering the paper reports
// and the goodput of every variant to a ±10% band around the committed
// values. The simulator is deterministic, so drift outside these bands means
// a real behavior change — recalibrate the table only when the change is
// intentional and understood.

const goldenTol = 0.10 // relative goodput tolerance

// refPlane returns the harness hook that switches a run onto rdcn's unpooled
// reference data plane (every wire buffer a fresh allocation) when unpooled is
// set. The pooled/unpooled A/B tests compare the default plane against it.
func refPlane(unpooled bool) func(*rdcn.Config) {
	return func(c *rdcn.Config) {
		if unpooled {
			c.FramePool = nil
		}
	}
}

// goldenGoodput holds the committed goodputs (Gbps) at seed 1, warmup 2,
// measure 4, 16 flows.
var goldenGoodput = map[string]map[Variant]float64{
	"hybrid": {
		ReTCPDyn: 20.25, TDTCP: 21.07, ReTCP: 19.15,
		DCTCP: 16.00, Cubic: 16.73, MPTCP: 13.21,
	},
	"bw-only": {
		ReTCPDyn: 15.04, TDTCP: 22.41, ReTCP: 16.67,
		DCTCP: 10.56, Cubic: 11.46, MPTCP: 11.67,
	},
}

func goldenResults(t *testing.T, scenario Scenario) map[Variant]*Result {
	t.Helper()
	out := map[Variant]*Result{}
	for _, v := range AllVariants {
		res, err := Run(RunConfig{Variant: v, Scenario: scenario, WarmupWeeks: 2, MeasureWeeks: 4})
		if err != nil {
			t.Fatalf("%s on %s: %v", v, scenario.Name, err)
		}
		out[v] = res
	}
	return out
}

func assertOrder(t *testing.T, label string, res map[Variant]*Result, chain []Variant) {
	t.Helper()
	for i := 1; i < len(chain); i++ {
		hi, lo := chain[i-1], chain[i]
		if res[hi].GoodputGbps <= res[lo].GoodputGbps {
			t.Errorf("%s: ordering violated: %s (%.2f) <= %s (%.2f)",
				label, hi, res[hi].GoodputGbps, lo, res[lo].GoodputGbps)
		}
	}
}

func assertBands(t *testing.T, label string, res map[Variant]*Result) {
	t.Helper()
	for v, want := range goldenGoodput[label] {
		got := res[v].GoodputGbps
		if got < want*(1-goldenTol) || got > want*(1+goldenTol) {
			t.Errorf("%s/%s: goodput %.2f outside golden band %.2f ±%.0f%%",
				label, v, got, want, goldenTol*100)
		}
	}
}

// TestGoldenFig7 pins the paper's main comparison (Fig. 7, hybrid RDCN):
// TDTCP beats reTCP, which beats DCTCP and CUBIC, which beat MPTCP, which
// still beats the packet-only reference; and the headline deltas stay in
// their bands (paper: +24% vs CUBIC/DCTCP, +41% vs MPTCP, parity with
// retcpdyn).
func TestGoldenFig7(t *testing.T) {
	res := goldenResults(t, Hybrid())
	assertOrder(t, "fig7", res, []Variant{TDTCP, ReTCP, Cubic, MPTCP})
	assertOrder(t, "fig7", res, []Variant{TDTCP, ReTCP, DCTCP, MPTCP})
	if po := res[TDTCP].PacketOnlyGbps; res[MPTCP].GoodputGbps <= po {
		t.Errorf("fig7: mptcp (%.2f) <= packet-only (%.2f)", res[MPTCP].GoodputGbps, po)
	}
	assertBands(t, "hybrid", res)

	tdtcp := res[TDTCP].GoodputGbps
	for _, tc := range []struct {
		base     Variant
		min, max float64 // delta band, fraction
	}{
		{Cubic, 0.15, 0.40},
		{DCTCP, 0.20, 0.45},
		{MPTCP, 0.40, 0.80},
		{ReTCPDyn, -0.12, 0.12}, // parity
	} {
		d := tdtcp/res[tc.base].GoodputGbps - 1
		if d < tc.min || d > tc.max {
			t.Errorf("fig7: tdtcp vs %s delta %+.1f%% outside [%+.0f%%, %+.0f%%]",
				tc.base, d*100, tc.min*100, tc.max*100)
		}
	}
}

// TestGoldenFig8 pins the bandwidth-difference-only comparison (Fig. 8):
// TDTCP leads reTCP, and every variant stays above the packet-only floor.
func TestGoldenFig8(t *testing.T) {
	res := goldenResults(t, BandwidthOnly())
	assertOrder(t, "fig8", res, []Variant{TDTCP, ReTCP, Cubic, DCTCP})
	po := res[TDTCP].PacketOnlyGbps
	for v, r := range res {
		if r.GoodputGbps <= po {
			t.Errorf("fig8: %s (%.2f) <= packet-only (%.2f)", v, r.GoodputGbps, po)
		}
	}
	assertBands(t, "bw-only", res)
}

// TestGoldenRotor8 is the multi-rack gate: on an 8-rack rotor fabric TDTCP
// must beat CUBIC on goodput while holding lower mean VOQ occupancy, with
// both comfortably above the packet-only floor. Four measurement weeks: which
// day boundary a boundary-aligned burst lands on is a sampling effect that
// over only two weeks is larger than the VOQ gap the claim pins; by four
// weeks it averages out.
func TestGoldenRotor8(t *testing.T) {
	run := func(v Variant) *Result {
		res, err := Run(RunConfig{Variant: v, Scenario: MultiRack(8), WarmupWeeks: 1, MeasureWeeks: 4})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		return res
	}
	td, cu := run(TDTCP), run(Cubic)
	if td.GoodputGbps < cu.GoodputGbps {
		t.Errorf("rotor8: tdtcp goodput %.2f < cubic %.2f", td.GoodputGbps, cu.GoodputGbps)
	}
	if td.VOQMean >= cu.VOQMean {
		t.Errorf("rotor8: tdtcp mean VOQ %.2f >= cubic %.2f", td.VOQMean, cu.VOQMean)
	}
	for _, r := range []*Result{td, cu} {
		if r.GoodputGbps <= r.PacketOnlyGbps {
			t.Errorf("rotor8: %s goodput %.2f <= packet-only %.2f",
				r.Variant, r.GoodputGbps, r.PacketOnlyGbps)
		}
	}
}

// rotorTraceRun executes a short 8-rack TDTCP run with a full-category tracer
// and returns the JSONL bytes.
func rotorTraceRun(t *testing.T, disablePool bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.CatAll)
	_, err := Run(RunConfig{
		Variant: TDTCP, Scenario: MultiRack(8), Flows: 8,
		WarmupWeeks: 1, MeasureWeeks: 1, Seed: 7,
		Tracer: tr, tweakNet: refPlane(disablePool),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// workloadTraceRun executes a short 8-rack websearch workload with a
// full-category tracer and returns the JSONL bytes.
func workloadTraceRun(t *testing.T, disablePool bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.CatAll)
	_, err := RunWorkload(WorkloadConfig{
		Variant: TDTCP, Scenario: MultiRack(8),
		WarmupWeeks: 1, MeasureWeeks: 1, Seed: 7,
		Tracer: tr, tweakNet: refPlane(disablePool),
	})
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenMultiRackDeterminism extends the golden-trace gate to the rotor
// fabric: the same seeded 8-rack run (long-lived flows, and the open-loop
// workload) must produce byte-identical JSONL traces run-to-run and with the
// frame pool disabled.
func TestGoldenMultiRackDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, disablePool bool) []byte
	}{
		{"run", rotorTraceRun},
		{"workload", workloadTraceRun},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pooled := tc.run(t, false)
			pooled2 := tc.run(t, false)
			unpooled := tc.run(t, true)
			if len(pooled) == 0 {
				t.Fatal("traced run produced no events")
			}
			if !bytes.Equal(pooled, pooled2) {
				d := firstDiffLine(pooled, pooled2)
				t.Fatalf("same-seed runs diverge at line %d\nfirst:  %s\nsecond: %s",
					d, lineAt(pooled, d), lineAt(pooled2, d))
			}
			if !bytes.Equal(pooled, unpooled) {
				d := firstDiffLine(pooled, unpooled)
				t.Fatalf("pooling is observable: traces diverge at line %d\npooled:   %s\nunpooled: %s",
					d, lineAt(pooled, d), lineAt(unpooled, d))
			}
		})
	}
}

// TestGoldenWorkloadSweepParity runs the same workload matrix through the
// sweep worker pool sequentially and on 4 workers and requires identical
// results cell by cell (the multi-rack counterpart of
// TestSweepParallelMatchesSequential; under -race this doubles as its
// data-race check).
func TestGoldenWorkloadSweepParity(t *testing.T) {
	var cfgs []WorkloadConfig
	for _, v := range RotorVariants {
		for _, seed := range []int64{1, 2} {
			cfgs = append(cfgs, WorkloadConfig{
				Variant: v, Scenario: MultiRack(4), Seed: seed,
				WarmupWeeks: 1, MeasureWeeks: 1,
			})
		}
	}
	sweep := func(workers int) []*WorkloadResult {
		out := make([]*WorkloadResult, len(cfgs))
		sweepCells(len(cfgs), workers, nil, func(i int) error {
			res, err := RunWorkload(cfgs[i])
			if err != nil {
				t.Errorf("cell %d (%s seed %d): %v", i, cfgs[i].Variant, cfgs[i].Seed, err)
				return err
			}
			out[i] = res
			return nil
		})
		return out
	}
	seq, par := sweep(1), sweep(4)
	if t.Failed() {
		t.FailNow()
	}
	for i := range cfgs {
		s, p := seq[i], par[i]
		sk := fmt.Sprintf("%v|%d|%d|%.6f|%.6f", s.Variant, s.FlowsStarted,
			s.FlowsCompleted, s.GoodputGbps, s.MeanVOQ)
		pk := fmt.Sprintf("%v|%d|%d|%.6f|%.6f", p.Variant, p.FlowsStarted,
			p.FlowsCompleted, p.GoodputGbps, p.MeanVOQ)
		if sk != pk {
			t.Errorf("cell %d diverges:\nseq: %s\npar: %s", i, sk, pk)
		}
		if s.FlowsStarted == 0 {
			t.Errorf("cell %d (%s seed %d): no flows arrived", i, cfgs[i].Variant, cfgs[i].Seed)
		}
	}
}
