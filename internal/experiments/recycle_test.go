package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/trace"
)

// rotorChurn is the benchmark's rotor_websearch configuration (8-rack rotor,
// TDTCP, web-search sizes, load 0.4, 4 hosts per rack, seed 1001) over the
// given number of measured weeks.
func rotorChurn(weeks int) WorkloadConfig {
	return WorkloadConfig{Variant: TDTCP, Scenario: MultiRack(8), Hosts: 4, Load: 0.4,
		WarmupWeeks: 1, MeasureWeeks: weeks, MaxFlows: 8192, Seed: 1001}
}

// allocatedBy reports what fn allocates: the runtime.MemStats TotalAlloc and
// Mallocs deltas around it, after a forced collection.
func allocatedBy(fn func()) (bytes, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestWorkloadChurnAllocatesForItsResultOnly is the allocation contract of
// flow churn (DESIGN.md §10 "Endpoint reuse"): what an open-loop run
// allocates beyond its first weeks is its result — FCT samples and
// done-records — not the endpoints of the flows it starts, because an
// arrival reopens a flow release parked whole, each end on the queue array it
// kept, with its FIN-ack callback still bound. The same configuration is run
// to 21 and to 61 weeks; the bytes and mallocs each further flow costs are the
// differences in runtime.MemStats.TotalAlloc and Mallocs over the difference
// in arrivals. Constructing both endpoints per arrival read 9.5 kB here;
// reopening loose endpoints, which swapped queue arrays between roles, with a
// closure per arrival, read 725 B and 3.7 mallocs; this reads 434 B and 1.4.
func TestWorkloadChurnAllocatesForItsResultOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on this path")
	}
	measure := func(weeks int) (bytes, mallocs uint64, flows int) {
		var res *WorkloadResult
		var err error
		bytes, mallocs = allocatedBy(func() { res, err = RunWorkload(rotorChurn(weeks)) })
		if err != nil {
			t.Fatal(err)
		}
		life := res.life
		t.Logf("%d weeks: %d flows, %d endpoints built, %d reopened, %d parked at the horizon",
			1+weeks, res.FlowsStarted, life.built, life.reopened, life.parked)
		if life.built >= res.FlowsStarted {
			t.Errorf("%d weeks: %d endpoints built for %d flows: reuse is not being exercised",
				1+weeks, life.built, res.FlowsStarted)
		}
		return bytes, mallocs, res.FlowsStarted
	}
	shortBytes, shortMallocs, shortFlows := measure(20)
	longBytes, longMallocs, longFlows := measure(60)
	if longFlows < 2*shortFlows {
		t.Fatalf("%d flows over 61 weeks, %d over 21: not the same load", longFlows, shortFlows)
	}
	further := uint64(longFlows - shortFlows)
	perFlow := (longBytes - shortBytes) / further
	mallocs := float64(longMallocs-shortMallocs) / float64(further)
	t.Logf("%d B for %d flows, %d B for %d flows: %d B and %.1f mallocs per further flow",
		shortBytes, shortFlows, longBytes, longFlows, perFlow, mallocs)
	if perFlow > 512 || mallocs > 2 {
		t.Errorf("a further flow costs %d B in %.1f mallocs, want at most 512 B in 2", perFlow, mallocs)
	}
}

// TestEndpointReuseIsUnobservable: reopening released endpoints is, like
// netem.BufPool's buffer identity, invisible in everything a run emits. The
// same traced 4-rack web-search run with reuse and with every arrival
// constructing its endpoints (the noReuse seam) writes byte-identical JSONL
// and metrics JSON, and the reusing run did reuse.
func TestEndpointReuseIsUnobservable(t *testing.T) {
	run := func(noReuse bool) (jsonl, metrics []byte, res *WorkloadResult) {
		var buf, mbuf bytes.Buffer
		tr := trace.New(&buf, trace.CatAll&^trace.CatSim)
		reg := trace.NewRegistry()
		res, err := RunWorkload(WorkloadConfig{Variant: TDTCP, Scenario: MultiRack(4), Load: 0.3,
			WarmupWeeks: 1, MeasureWeeks: 12, Tracer: tr, Metrics: reg, noReuse: noReuse})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteJSON(&mbuf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), mbuf.Bytes(), res
	}
	jsonl, metrics, res := run(false)
	refJSONL, refMetrics, ref := run(true)
	if ref.life.reopened != 0 || ref.life.built != 2*ref.FlowsStarted {
		t.Fatalf("the reference run reopened %d endpoints and built %d for %d flows",
			ref.life.reopened, ref.life.built, ref.FlowsStarted)
	}
	if res.life.reopened < res.FlowsStarted/2 {
		t.Fatalf("only %d endpoints reopened over %d flows: too few to show anything", res.life.reopened, res.FlowsStarted)
	}
	if !bytes.Equal(jsonl, refJSONL) {
		d := firstDiffLine(jsonl, refJSONL)
		t.Errorf("endpoint reuse is observable: traces diverge at line %d\nreusing:      %s\nconstructing: %s",
			d, lineAt(jsonl, d), lineAt(refJSONL, d))
	}
	if !bytes.Equal(metrics, refMetrics) {
		t.Errorf("the metrics differ with endpoint reuse:\n%s\n%s", metrics, refMetrics)
	}
}
