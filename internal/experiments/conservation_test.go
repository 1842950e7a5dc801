package experiments

import (
	"testing"
	"testing/quick"

	"github.com/rdcn-net/tdtcp/internal/fault"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// Conservation property suite: for every CC variant, under randomized fault
// plans, every frame a host sends must be accounted for at the horizon
// (delivered + misrouted + VOQ drops + fault drops + in-flight — Run and
// RunWorkload fail outright when rdcn.CheckConservation finds a leak), and
// the per-event invariant checker must stay silent (its connection checks
// include the SACK-scoreboard bound: sacked bytes never exceed outstanding
// data).

// conservationVariants covers every CC variant, including the two-rack-only
// transports.
var conservationVariants = []Variant{TDTCP, Cubic, DCTCP, Reno, ReTCP, ReTCPDyn, MPTCP}

// cell is one randomized conservation probe; testing/quick fills the fields.
type cell struct {
	Seed      uint8
	FaultSeed uint8
	VIdx      uint8
	Nloss     uint8 // notification loss, eighths of 0.4
	Drop      uint8 // frame drop, eighths of 0.04
	Corrupt   uint8 // frame corruption, eighths of 0.04
	Flaps     uint8 // flapped days, 0-3
}

func (c cell) plan() fault.Plan {
	return fault.Plan{
		NotifyLoss: float64(c.Nloss%8) * 0.05,
		Drop:       float64(c.Drop%8) * 0.005,
		Corrupt:    float64(c.Corrupt%8) * 0.005,
		Flaps:      int(c.Flaps % 4),
		FlapFrac:   0.5,
	}
}

// TestConservationQuick drives randomized (variant, seed, fault-plan) cells
// through short two-rack runs with the invariant checker attached.
func TestConservationQuick(t *testing.T) {
	prop := func(c cell) bool {
		v := conservationVariants[int(c.VIdx)%len(conservationVariants)]
		plan := c.plan()
		res, err := Run(RunConfig{
			Variant: v, Scenario: Hybrid(), Flows: 2,
			WarmupWeeks: 1, MeasureWeeks: 1,
			Seed: int64(c.Seed) + 1, Fault: &plan, FaultSeed: int64(c.FaultSeed) + 1,
			Invariants: true,
		})
		if err != nil {
			t.Logf("%s seed %d: %v", v, c.Seed, err)
			return false
		}
		if len(res.Violations) > 0 {
			t.Logf("%s seed %d: %d invariant violations, first: %v",
				v, c.Seed, len(res.Violations), res.Violations[0])
			return false
		}
		if res.FramesSent == 0 {
			t.Logf("%s seed %d: no frames sent", v, c.Seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}

// TestConservationQuickMultiRack repeats the probe on the 4-rack rotor fabric
// for the rotor-capable variants, via the open-loop workload (finite flows
// exercise the FIN path and leave frames in flight at the horizon).
func TestConservationQuickMultiRack(t *testing.T) {
	prop := func(seed uint8, vIdx uint8, load uint8) bool {
		v := RotorVariants[int(vIdx)%len(RotorVariants)]
		res, err := RunWorkload(WorkloadConfig{
			Variant: v, Scenario: MultiRack(4),
			Load:        0.1 + float64(load%8)*0.05,
			WarmupWeeks: 1, MeasureWeeks: 1, Seed: int64(seed) + 1,
		})
		if err != nil {
			t.Logf("%s seed %d: %v", v, seed, err)
			return false
		}
		return res.FramesSent > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestConservationFaultedRotor injects data-plane faults into a multi-rack
// long-lived run: dropped and corrupted frames must land in the fault-drop
// ledger, not leak from it.
func TestConservationFaultedRotor(t *testing.T) {
	plan := fault.Plan{Drop: 0.01, Corrupt: 0.005, NotifyLoss: 0.1,
		NotifyDelay: 5 * sim.Microsecond}
	for _, v := range RotorVariants {
		res, err := Run(RunConfig{
			Variant: v, Scenario: MultiRack(4), Flows: 8,
			WarmupWeeks: 1, MeasureWeeks: 2,
			Fault: &plan, Invariants: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("%s: %d violations, first: %v", v, len(res.Violations), res.Violations[0])
		}
		if res.FaultStats.FramesDropped == 0 {
			t.Errorf("%s: fault plan injected no frame drops", v)
		}
	}
}

// TestPerRackLedger checks the conservation ledger at both granularities, on
// the two-rack hybrid and the 4-rack rotor: each rack's slice (frames its
// hosts sent, frames terminating at it) sums to the network ledger, and the
// global conservation equation holds.
func TestPerRackLedger(t *testing.T) {
	for _, sc := range []Scenario{Hybrid(), MultiRack(4)} {
		h := startedRunHarness(t, RunConfig{Variant: TDTCP, Scenario: sc, Flows: 4, WarmupWeeks: 1, MeasureWeeks: 1, Seed: 3})
		h.loop.RunUntil(h.end)
		var sent, delivered, misrouted uint64
		for _, rack := range h.net.Racks {
			s, d, m := rack.FrameLedger()
			if s == 0 || d == 0 {
				t.Errorf("%s: rack %d sent %d frames and received %d", sc.Name, rack.ID, s, d)
			}
			sent, delivered, misrouted = sent+s, delivered+d, misrouted+m
		}
		if gs, gd, gm := h.net.FrameLedger(); sent != gs || delivered != gd || misrouted != gm {
			t.Errorf("%s: per-rack ledgers sum to (%d,%d,%d), the network's is (%d,%d,%d)",
				sc.Name, sent, delivered, misrouted, gs, gd, gm)
		}
		if err := h.net.CheckConservation(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
	}
}

// TestByteLedger: the horizon's byte ledger (harness.finish) holds
// acked <= delivered <= written with each acknowledged FIN taken out of the
// acked count once, and a count one byte off in any direction breaks it.
func TestByteLedger(t *testing.T) {
	for _, tc := range []struct {
		name string
		l    byteLedger
		ok   bool
	}{
		{"complete", byteLedger{acked: 1001, fins: 1, delivered: 1000, written: 1000}, true},
		{"open flows", byteLedger{acked: 700, fins: 1, delivered: 900, written: 1000}, true},
		{"streams", byteLedger{acked: 500, delivered: 900, written: -1}, true},
		{"FIN counted as data", byteLedger{acked: 1001, delivered: 1000, written: 1000}, false},
		{"one byte acked undelivered", byteLedger{acked: 1002, fins: 1, delivered: 1000, written: 1000}, false},
		{"one byte delivered unwritten", byteLedger{acked: 1001, fins: 1, delivered: 1001, written: 1000}, false},
	} {
		if err := tc.l.check(); (err == nil) != tc.ok {
			t.Errorf("%s: %+v: check() = %v, want ok=%v", tc.name, tc.l, err, tc.ok)
		}
	}

	// A workload whose every flow completes leaves no slack in the ledger:
	// what RunWorkload hands finish is equal at both bounds, so an
	// off-by-one anywhere in it fails the run.
	res, err := RunWorkload(WorkloadConfig{Variant: TDTCP, Scenario: MultiRack(4), Load: 0.1,
		WarmupWeeks: 1, MeasureWeeks: 40, MaxFlows: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsCompleted != res.FlowsStarted {
		t.Fatalf("%d of %d flows completed: the ledger has slack", res.FlowsCompleted, res.FlowsStarted)
	}
	acked := res.Sender.BytesAcked - int64(res.FlowsCompleted)
	if acked != res.Receiver.BytesDelivered || res.Receiver.BytesDelivered != res.BytesOffered {
		t.Errorf("%d bytes acked (less %d FINs), %d delivered, %d written: want all equal",
			acked, res.FlowsCompleted, res.Receiver.BytesDelivered, res.BytesOffered)
	}
}
