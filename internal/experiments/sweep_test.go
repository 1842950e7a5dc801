package experiments

import (
	"bytes"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/trace"
)

// sweepMatrix returns the 8-cell matrix (4 variants x 2 seeds) of short
// hybrid runs used by the parity tests.
func sweepMatrix() []RunConfig {
	base := RunConfig{Flows: 2, WarmupWeeks: 1, MeasureWeeks: 1}
	return Matrix(base, []Variant{TDTCP, ReTCP, DCTCP, Cubic}, []int64{1, 2})
}

// TestSweepParallelMatchesSequential runs the same 8-config matrix through
// the sequential and parallel paths and requires identical results cell by
// cell: same goodput, same endpoint counters, same input-order indexing.
// Run under -race this doubles as the sweep's data-race gate.
func TestSweepParallelMatchesSequential(t *testing.T) {
	cfgs := sweepMatrix()
	seq := Sweep(cfgs, 1)
	par := Sweep(cfgs, 4)
	if len(seq) != len(cfgs) || len(par) != len(cfgs) {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), len(cfgs))
	}
	for i := range cfgs {
		s, p := seq[i], par[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("cell %d errored: seq=%v par=%v", i, s.Err, p.Err)
		}
		if s.Cfg.Variant != cfgs[i].Variant || p.Cfg.Variant != cfgs[i].Variant {
			t.Fatalf("cell %d out of order: want %s, seq=%s par=%s",
				i, cfgs[i].Variant, s.Cfg.Variant, p.Cfg.Variant)
		}
		if s.Res.GoodputGbps != p.Res.GoodputGbps {
			t.Errorf("cell %d (%s seed %d): goodput %.6f (seq) != %.6f (par)",
				i, cfgs[i].Variant, cfgs[i].Seed, s.Res.GoodputGbps, p.Res.GoodputGbps)
		}
		if s.Res.Sender != p.Res.Sender {
			t.Errorf("cell %d (%s seed %d): sender stats diverge:\nseq: %+v\npar: %+v",
				i, cfgs[i].Variant, cfgs[i].Seed, s.Res.Sender, p.Res.Sender)
		}
		if s.Res.Receiver != p.Res.Receiver {
			t.Errorf("cell %d (%s seed %d): receiver stats diverge",
				i, cfgs[i].Variant, cfgs[i].Seed)
		}
	}
}

func TestMatrixOrder(t *testing.T) {
	cfgs := Matrix(RunConfig{Flows: 2}, []Variant{TDTCP, ReTCP}, []int64{3, 4})
	want := []struct {
		v Variant
		s int64
	}{{TDTCP, 3}, {TDTCP, 4}, {ReTCP, 3}, {ReTCP, 4}}
	if len(cfgs) != len(want) {
		t.Fatalf("len = %d, want %d", len(cfgs), len(want))
	}
	for i, w := range want {
		if cfgs[i].Variant != w.v || cfgs[i].Seed != w.s {
			t.Errorf("cell %d = (%s, %d), want (%s, %d)",
				i, cfgs[i].Variant, cfgs[i].Seed, w.v, w.s)
		}
	}
}

// goldenTraceRun executes a short TDTCP hybrid run with a full-category
// tracer and returns the JSONL bytes.
func goldenTraceRun(t *testing.T, seed int64, disablePool bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.CatAll)
	_, err := Run(RunConfig{
		Variant:      TDTCP,
		Scenario:     Hybrid(),
		Flows:        2,
		WarmupWeeks:  1,
		MeasureWeeks: 1,
		Seed:         seed,
		Tracer:       tr,
		tweakNet:     refPlane(disablePool),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// TestFramePoolGoldenTrace is the pooling A/B gate: recycling wire buffers
// must be completely unobservable. The same seeded hybrid scenario is run
// with pooling on (twice, to also catch pool-state leakage across the run's
// own lifetime) and off, and all traces must be byte-identical JSONL.
func TestFramePoolGoldenTrace(t *testing.T) {
	pooled := goldenTraceRun(t, 42, false)
	pooled2 := goldenTraceRun(t, 42, false)
	unpooled := goldenTraceRun(t, 42, true)
	if len(pooled) == 0 {
		t.Fatal("traced run produced no events")
	}
	if !bytes.Equal(pooled, pooled2) {
		t.Fatalf("pooled runs of the same seed diverge (%d vs %d bytes)", len(pooled), len(pooled2))
	}
	if !bytes.Equal(pooled, unpooled) {
		d := firstDiffLine(pooled, unpooled)
		t.Fatalf("pooling is observable: traces diverge at line %d\npooled:   %s\nunpooled: %s",
			d, lineAt(pooled, d), lineAt(unpooled, d))
	}
}

// firstDiffLine returns the 1-based index of the first line where a and b
// differ.
func firstDiffLine(a, b []byte) int {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return i + 1
		}
	}
	return n + 1
}

func lineAt(b []byte, n int) []byte {
	lines := bytes.Split(b, []byte("\n"))
	if n-1 < len(lines) {
		return lines[n-1]
	}
	return nil
}
