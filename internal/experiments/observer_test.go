package experiments

import (
	"bytes"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// rotorWebSearch is the open-loop rotor-8 run the two tests below vary one
// thing of: web-search flows at load 0.4, with MaxFlows high enough that the
// horizon, not the cap, ends the arrivals.
func rotorWebSearch(v Variant, sampleEvery sim.Dur, tr *trace.Tracer) WorkloadConfig {
	return WorkloadConfig{Variant: v, Scenario: MultiRack(8), Load: 0.4,
		WarmupWeeks: 1, MeasureWeeks: 3, Seed: 1001, MaxFlows: 1 << 15,
		SampleEvery: sampleEvery, Tracer: tr}
}

// TestSamplerCadenceCannotMoveAResult: an observer is not an input. The VOQ
// sampler's cadence decides how many sampler events interleave with the
// simulation's own, and nothing else: goodput, the flows started and
// completed, the summed endpoint counters and every trace byte are the same
// at 5, 50 and 200 µs.
func TestSamplerCadenceCannotMoveAResult(t *testing.T) {
	run := func(every sim.Dur) (*WorkloadResult, []byte) {
		var buf bytes.Buffer
		tr := trace.New(&buf, trace.CatAll&^trace.CatSim)
		res, err := RunWorkload(rotorWebSearch(TDTCP, every, tr))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	base, baseTrace := run(5 * sim.Microsecond)
	if base.FlowsCompleted == 0 || base.FlowsStarted == 1<<15 || len(baseTrace) == 0 {
		t.Fatalf("%d flows started, %d completed, %d trace bytes: nothing to compare, or MaxFlows ended the run",
			base.FlowsStarted, base.FlowsCompleted, len(baseTrace))
	}
	for _, every := range []sim.Dur{50 * sim.Microsecond, 200 * sim.Microsecond} {
		res, tr := run(every)
		if res.GoodputGbps != base.GoodputGbps || res.FlowsStarted != base.FlowsStarted || res.FlowsCompleted != base.FlowsCompleted {
			t.Errorf("SampleEvery %v: %.8f Gbps, %d started, %d completed; at 5 µs %.8f, %d, %d", every,
				res.GoodputGbps, res.FlowsStarted, res.FlowsCompleted, base.GoodputGbps, base.FlowsStarted, base.FlowsCompleted)
		}
		if res.Sender != base.Sender || res.Receiver != base.Receiver {
			t.Errorf("SampleEvery %v: summed endpoint counters differ from the 5 µs run's", every)
		}
		if !bytes.Equal(tr, baseTrace) {
			d := firstDiffLine(baseTrace, tr)
			t.Errorf("SampleEvery %v: trace diverges at line %d\n  5 µs: %s\n  here: %s", every, d, lineAt(baseTrace, d), lineAt(tr, d))
		}
	}
}

// TestVariantsAreOfferedTheSameFlows: common random numbers. For one seed every
// variant is offered the same arrival process — the same number of flows and
// the same bytes — because arrivals draw from their own generator and not from
// the loop's, which the connections under test also draw from.
func TestVariantsAreOfferedTheSameFlows(t *testing.T) {
	var base *WorkloadResult
	for _, v := range []Variant{TDTCP, Cubic, DCTCP} {
		res, err := RunWorkload(rotorWebSearch(v, 0, nil))
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.FlowsStarted != base.FlowsStarted || res.BytesOffered != base.BytesOffered {
			t.Errorf("%s was offered %d flows / %d B, %s %d / %d", v, res.FlowsStarted, res.BytesOffered,
				base.Variant, base.FlowsStarted, base.BytesOffered)
		}
	}
	if base.FlowsStarted == 0 {
		t.Fatal("no flows started")
	}
}
