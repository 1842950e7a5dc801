package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/fault"
	"github.com/rdcn-net/tdtcp/internal/obs"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// shortRun executes a 2-flow, 1+2-week run of the given variant under plan
// (nil = clean) with the invariant checker attached. Any failure in the
// calling test logs the run's flight recorder.
func shortRun(t *testing.T, v Variant, plan *fault.Plan) *Result {
	t.Helper()
	res, err := Run(RunConfig{
		Variant:      v,
		Flows:        2,
		WarmupWeeks:  1,
		MeasureWeeks: 2,
		Seed:         1,
		Fault:        plan,
		Invariants:   true,
	})
	if err != nil {
		t.Fatalf("Run(%s): %v", v, err)
	}
	obs.DumpOnFailure(t, res.Flight)
	return res
}

// TestFaultMatrix sweeps fault plans across transports and asserts the two
// robustness properties the subsystem promises: no invariant ever breaks, and
// throughput degrades boundedly instead of collapsing to a stall.
func TestFaultMatrix(t *testing.T) {
	plans := []string{
		"nloss=0.1",
		"flaps=1,flapfrac=0.5",
		"drop=0.02",
		"nloss=0.05,drop=0.01,flaps=1",
	}
	variants := []Variant{TDTCP, Cubic, DCTCP}

	for _, v := range variants {
		clean := shortRun(t, v, nil)
		if len(clean.Violations) != 0 {
			t.Fatalf("%s clean run: %d invariant violations: %v", v, len(clean.Violations), clean.Violations[0])
		}
		for _, spec := range plans {
			t.Run(fmt.Sprintf("%s/%s", v, spec), func(t *testing.T) {
				plan, err := fault.Parse(spec)
				if err != nil {
					t.Fatalf("Parse(%q): %v", spec, err)
				}
				res := shortRun(t, v, &plan)
				if n := len(res.Violations); n != 0 {
					t.Fatalf("%d invariant violations, first: %v", n, res.Violations[0])
				}
				if res.InvariantChecks == 0 {
					t.Fatal("invariant checker never ran")
				}
				if res.GoodputGbps <= 0 {
					t.Fatalf("faulted run stalled: goodput %v Gbps", res.GoodputGbps)
				}
				// Bounded collapse: a lossy control channel or 2% data-path
				// drop must not cost more than 90% of clean throughput.
				if res.GoodputGbps < 0.1*clean.GoodputGbps {
					t.Fatalf("throughput collapsed: %0.2f Gbps faulted vs %0.2f clean",
						res.GoodputGbps, clean.GoodputGbps)
				}
			})
		}
	}
}

// faultedTracedRun is tracedRun's faulted twin: full-category trace + metrics
// of a TDTCP run under notification loss, circuit flaps and frame drops.
func faultedTracedRun(t *testing.T) ([]byte, []byte) {
	t.Helper()
	plan, err := fault.Parse("nloss=0.1,ndup=0.05,drop=0.01,flaps=1,drift=2us")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.CatAll)
	reg := trace.NewRegistry()
	_, err = Run(RunConfig{
		Variant:      TDTCP,
		Flows:        2,
		WarmupWeeks:  1,
		MeasureWeeks: 2,
		Seed:         42,
		Fault:        &plan,
		FaultSeed:    7,
		Invariants:   true,
		Tracer:       tr,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	var mj bytes.Buffer
	if err := reg.WriteJSON(&mj); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes(), mj.Bytes()
}

// TestFaultedRunDeterministic is the reproducibility acceptance criterion:
// same (seed, faultseed) must give byte-identical traces and metrics.
func TestFaultedRunDeterministic(t *testing.T) {
	trA, mA := faultedTracedRun(t)
	trB, mB := faultedTracedRun(t)
	if !bytes.Equal(trA, trB) {
		t.Fatalf("same (seed, faultseed) produced different traces (%d vs %d bytes)", len(trA), len(trB))
	}
	if !bytes.Equal(mA, mB) {
		t.Fatalf("same (seed, faultseed) produced different metrics:\n%s\nvs\n%s", mA, mB)
	}
	// Faults must actually have been injected and traced.
	for _, want := range []string{`"cat":"fault"`, `"name":"notify_drop"`} {
		if !bytes.Contains(trA, []byte(want)) {
			t.Errorf("faulted trace missing %s", want)
		}
	}
}

// TestDeadmanEngagesUnderNotificationLoss is the degradation acceptance
// criterion: a TDTCP run losing 10% of its notifications completes (goodput
// comparable to clean) with the schedule-inference deadman visibly engaging.
func TestDeadmanEngagesUnderNotificationLoss(t *testing.T) {
	clean := shortRun(t, TDTCP, nil)
	if clean.DeadmanEngaged != 0 {
		t.Fatalf("clean run engaged the deadman %d times", clean.DeadmanEngaged)
	}

	plan, err := fault.Parse("nloss=0.1")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.CatTDN)
	reg := trace.NewRegistry()
	res, err := Run(RunConfig{
		Variant:      TDTCP,
		Flows:        2,
		WarmupWeeks:  1,
		MeasureWeeks: 2,
		Seed:         1,
		Fault:        &plan,
		Invariants:   true,
		Tracer:       tr,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	obs.DumpOnFailure(t, res.Flight)
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if res.FaultStats.NotifyDropped == 0 {
		t.Fatal("plan dropped no notifications")
	}
	if res.DeadmanEngaged == 0 {
		t.Fatal("deadman never engaged despite dropped notifications")
	}
	if got := reg.Counter("tdtcp.deadman_engaged"); got != int64(res.DeadmanEngaged) {
		t.Errorf("metrics tdtcp.deadman_engaged = %d, want %d", got, res.DeadmanEngaged)
	}
	// A sender's engagement is a tdn_deadman record in the tdn category, the
	// one `tdtrace -filter -cat tdn` selects (receivers carry no tracer).
	if got := bytes.Count(buf.Bytes(), []byte(`"cat":"tdn","name":"tdn_deadman"`)); got == 0 || uint64(got) > res.DeadmanEngaged {
		t.Errorf("trace has %d tdn_deadman records in category tdn, want 1 to %d", got, res.DeadmanEngaged)
	}
	if reg.Counter("fault.notify_dropped") != int64(res.FaultStats.NotifyDropped) {
		t.Errorf("metrics fault.notify_dropped = %d, want %d",
			reg.Counter("fault.notify_dropped"), res.FaultStats.NotifyDropped)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations under notification loss: %v", res.Violations[0])
	}
	if res.GoodputGbps < 0.5*clean.GoodputGbps {
		t.Fatalf("notification loss halved throughput despite deadman: %0.2f vs %0.2f Gbps",
			res.GoodputGbps, clean.GoodputGbps)
	}
}

// TestCheckedRunWatchesDSNQueue: a checked MPTCP run watches each flow end's
// socket, so a receiver's connection-level DSN queue is checked beside its
// subflows, and a corrupted queue is reported at its flow's site.
func TestCheckedRunWatchesDSNQueue(t *testing.T) {
	h := startedRunHarness(t, RunConfig{Variant: MPTCP, Flows: 4, WarmupWeeks: 1, MeasureWeeks: 2, Invariants: true})
	h.chk.Every = 1
	h.chk.SetFlight(h.flight, nil) // the violation is expected: no dump
	flow := -1
	var q *packet.Reassembly
	for step := 0; flow < 0; step++ {
		if step == 10000 {
			t.Fatal("no MPTCP receiver held a DSN range beyond its next point in 100 ms")
		}
		h.loop.RunUntil(h.loop.Now().Add(10 * sim.Microsecond))
		for i, f := range h.flows {
			if q = f.MRcv.DSNQueue(); len(q.Ranges()) > 0 {
				flow = i
				break
			}
		}
	}
	if vs := h.chk.Violations(); len(vs) != 0 {
		t.Fatalf("clean run reported %v", vs[0])
	}
	q.Ranges()[0].End = q.Ranges()[0].Start
	h.loop.RunUntil(h.loop.Now().Add(10 * sim.Microsecond))
	vs := h.chk.Violations()
	if len(vs) != 1 || vs[0].Site != fmt.Sprintf("conn[%d]", flow) || !strings.Contains(vs[0].Err.Error(), "mptcp: DSN range 0 is empty") {
		t.Fatalf("violations %v; want one at conn[%d] naming the empty DSN range", vs, flow)
	}
}
