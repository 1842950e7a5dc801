package cc

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

func us(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }

func TestFactory(t *testing.T) {
	for _, name := range []string{"reno", "cubic", "dctcp", "retcp"} {
		f, err := NewFactory(name)
		if err != nil {
			t.Fatalf("NewFactory(%q): %v", name, err)
		}
		a := f()
		if a.Name() != name {
			t.Fatalf("Name = %q, want %q", a.Name(), name)
		}
		if a.Cwnd() != InitialCwnd {
			t.Fatalf("%s initial cwnd = %v", name, a.Cwnd())
		}
		// Two instances must be independent (per-TDN duplication relies
		// on this).
		b := f()
		a.OnEnterRecovery(0, 100)
		if b.Cwnd() != InitialCwnd {
			t.Fatalf("%s instances share state", name)
		}
	}
	if _, err := NewFactory("bbr2"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRenoSlowStartDoubles(t *testing.T) {
	r := NewReno()
	// Ack a full window: slow start doubles cwnd per RTT.
	r.OnAck(AckEvent{Acked: 10})
	if r.Cwnd() != 20 {
		t.Fatalf("cwnd = %v after acking 10 in slow start, want 20", r.Cwnd())
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	r := NewReno()
	r.ssthresh = 10 // at threshold: congestion avoidance
	before := r.Cwnd()
	r.OnAck(AckEvent{Acked: 10})
	// one full window acked => +~1 packet
	if got := r.Cwnd() - before; got < 0.9 || got > 1.1 {
		t.Fatalf("CA growth per RTT = %v, want ~1", got)
	}
}

func TestRenoRecoveryHalves(t *testing.T) {
	r := NewReno()
	r.cwnd = 40
	r.OnEnterRecovery(0, 40)
	if r.Cwnd() != 20 || r.Ssthresh() != 20 {
		t.Fatalf("cwnd=%v ssthresh=%v, want 20/20", r.Cwnd(), r.Ssthresh())
	}
	r.OnRTO(0, 20)
	if r.Cwnd() != 1 || r.Ssthresh() != 10 {
		t.Fatalf("after RTO cwnd=%v ssthresh=%v, want 1/10", r.Cwnd(), r.Ssthresh())
	}
}

func TestRenoMinCwnd(t *testing.T) {
	r := NewReno()
	r.cwnd = 2
	r.OnEnterRecovery(0, 2)
	if r.Cwnd() < MinCwnd {
		t.Fatalf("cwnd = %v below floor", r.Cwnd())
	}
}

func TestUndoRestores(t *testing.T) {
	for _, name := range []string{"reno", "cubic", "dctcp", "retcp"} {
		f, _ := NewFactory(name)
		a := f()
		// Grow a bit then suffer a (spurious) recovery.
		a.OnAck(AckEvent{Acked: 30, Now: us(100), SRTT: 100 * sim.Microsecond})
		before := a.Cwnd()
		a.OnEnterRecovery(us(200), int(before))
		if a.Cwnd() >= before {
			t.Fatalf("%s: recovery did not reduce", name)
		}
		a.Undo()
		if a.Cwnd() < before {
			t.Errorf("%s: Undo left cwnd %v < %v", name, a.Cwnd(), before)
		}
	}
}

func TestCubicSlowStartThenAvoidance(t *testing.T) {
	cu := NewCubic()
	cu.OnAck(AckEvent{Now: us(1), Acked: 10})
	if cu.Cwnd() != 20 {
		t.Fatalf("slow start cwnd = %v", cu.Cwnd())
	}
	cu.OnEnterRecovery(us(2), 20)
	w := cu.Cwnd()
	if math.Abs(w-14) > 0.2 { // 20 * 0.7
		t.Fatalf("post-loss cwnd = %v, want ~14", w)
	}
	if cu.Ssthresh() != w {
		t.Fatalf("ssthresh = %v", cu.Ssthresh())
	}
	cu.OnRecoveryExit(us(3))
	// Ack steadily for a while: cwnd must grow back toward/beyond wMax.
	now := us(10)
	for i := 0; i < 200; i++ {
		cu.OnAck(AckEvent{Now: now, Acked: int(cu.Cwnd()), SRTT: 100 * sim.Microsecond})
		now = now.Add(100 * sim.Microsecond)
	}
	if cu.Cwnd() <= w {
		t.Fatalf("cubic did not grow after recovery: %v", cu.Cwnd())
	}
}

func TestCubicFastConvergence(t *testing.T) {
	cu := NewCubic()
	cu.cwnd = 100
	cu.ssthresh = 100
	cu.OnEnterRecovery(us(1), 100)
	wm1 := cu.wMax
	if wm1 != 100 {
		t.Fatalf("wMax = %v, want 100", wm1)
	}
	// Second loss below wMax triggers fast convergence: wMax < cwnd at loss.
	cu.OnEnterRecovery(us(2), int(cu.Cwnd()))
	if cu.wMax >= wm1*0.7 {
		t.Fatalf("fast convergence did not shrink wMax: %v", cu.wMax)
	}
}

// Property: cubic cwnd stays within sane bounds and never NaN under random
// event sequences.
func TestCubicRobustness(t *testing.T) {
	f := func(ops []byte) bool {
		cu := NewCubic()
		now := sim.Time(0)
		for _, op := range ops {
			now = now.Add(sim.Dur(op) * sim.Microsecond)
			switch op % 4 {
			case 0, 1:
				cu.OnAck(AckEvent{Now: now, Acked: int(op%7) + 1, SRTT: 50 * sim.Microsecond})
			case 2:
				cu.OnEnterRecovery(now, int(cu.Cwnd()))
				cu.OnRecoveryExit(now)
			case 3:
				cu.OnRTO(now, int(cu.Cwnd()))
			}
			w := cu.Cwnd()
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 1 || w > 1e9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDCTCPAlphaConvergesToMarkRate(t *testing.T) {
	d := NewDCTCP()
	d.ssthresh = 10 // force congestion avoidance
	// Feed 100 windows each fully marked: alpha -> 1.
	for i := 0; i < 100; i++ {
		w := int(d.Cwnd())
		d.OnAck(AckEvent{Acked: w, ECEMarked: w})
	}
	if d.Alpha() < 0.9 {
		t.Fatalf("alpha = %v, want ~1 under full marking", d.Alpha())
	}
	// Now 200 clean windows: alpha decays toward 0.
	for i := 0; i < 200; i++ {
		w := int(d.Cwnd())
		d.OnAck(AckEvent{Acked: w})
	}
	if d.Alpha() > 0.05 {
		t.Fatalf("alpha = %v, want ~0 after clean windows", d.Alpha())
	}
}

func TestDCTCPGentleReductionWhenLightlyMarked(t *testing.T) {
	d := NewDCTCP()
	d.ssthresh = 1 // congestion avoidance from the start
	d.cwnd = 100
	// Drive alpha down with clean windows first.
	for i := 0; i < 100; i++ {
		d.OnAck(AckEvent{Acked: int(d.Cwnd())})
	}
	grown := d.Cwnd()
	// One lightly marked window: reduction should be much gentler than 50%.
	d.OnAck(AckEvent{Acked: int(d.Cwnd()), ECEMarked: 1})
	if d.Cwnd() < grown*0.8 {
		t.Fatalf("lightly-marked reduction too harsh: %v -> %v", grown, d.Cwnd())
	}
}

func TestDCTCPAtMostOneReductionPerWindow(t *testing.T) {
	d := NewDCTCP()
	d.ssthresh = 1
	d.cwnd = 64
	d.alpha = 1
	// Mark every packet but deliver acks one at a time; only one halving
	// per window-worth of acks.
	before := d.Cwnd()
	for i := 0; i < int(before); i++ {
		d.OnAck(AckEvent{Acked: 1, ECEMarked: 1})
	}
	// With alpha=1 the reduction is cwnd/2; growth adds ~1. Two reductions
	// would leave under a quarter.
	if d.Cwnd() < before/4 {
		t.Fatalf("more than one reduction per window: %v -> %v", before, d.Cwnd())
	}
	if d.Cwnd() > before*0.7 {
		t.Fatalf("no reduction applied: %v -> %v", before, d.Cwnd())
	}
}

func TestReTCPRampAndRestore(t *testing.T) {
	r := NewReTCP(8)
	r.cwnd = 10
	r.OnCircuitUp(us(1))
	if r.Cwnd() != 80 {
		t.Fatalf("ramped cwnd = %v, want 80", r.Cwnd())
	}
	r.OnCircuitUp(us(2)) // idempotent
	if r.Cwnd() != 80 || r.RampCount() != 1 {
		t.Fatalf("repeat ramp changed state: %v, count %d", r.Cwnd(), r.RampCount())
	}
	r.OnAck(AckEvent{Acked: 8}) // some growth while ramped (CA: ssthresh inf -> slow start, +8)
	r.OnCircuitDown(us(3))
	if r.Cwnd() < 10 || r.Cwnd() > 12 {
		t.Fatalf("restored cwnd = %v, want ~10-11", r.Cwnd())
	}
	r.OnCircuitDown(us(4)) // idempotent
}

func TestReTCPLossClearsRamp(t *testing.T) {
	r := NewReTCP(8)
	r.cwnd = 10
	r.OnCircuitUp(us(1))
	r.OnEnterRecovery(us(2), 80)
	w := r.Cwnd()
	r.OnCircuitDown(us(3))
	if r.Cwnd() != w {
		t.Fatalf("circuit-down after loss changed cwnd %v -> %v", w, r.Cwnd())
	}
	// Next circuit-up ramps again from the reduced window.
	r.OnCircuitUp(us(4))
	if r.Cwnd() != w*8 {
		t.Fatalf("re-ramp = %v, want %v", r.Cwnd(), w*8)
	}
}

func TestReTCPAlphaFloor(t *testing.T) {
	r := NewReTCP(0.5)
	r.cwnd = 10
	r.OnCircuitUp(us(1))
	if r.Cwnd() < 10 {
		t.Fatalf("alpha<1 shrank window: %v", r.Cwnd())
	}
}

// Property: for every algorithm, cwnd >= 1 and finite under arbitrary event
// interleavings.
func TestAllAlgorithmsInvariants(t *testing.T) {
	for _, name := range []string{"reno", "cubic", "dctcp", "retcp"} {
		f, _ := NewFactory(name)
		check := func(ops []byte) bool {
			a := f()
			now := sim.Time(0)
			for _, op := range ops {
				now = now.Add(sim.Dur(op%97) * sim.Microsecond)
				switch op % 5 {
				case 0, 1:
					a.OnAck(AckEvent{Now: now, Acked: int(op%11) + 1, ECEMarked: int(op % 3), SRTT: 40 * sim.Microsecond})
				case 2:
					a.OnEnterRecovery(now, int(a.Cwnd()))
				case 3:
					a.OnRTO(now, int(a.Cwnd()))
					a.OnRecoveryExit(now)
				case 4:
					if ca, ok := a.(CircuitAware); ok {
						if op%2 == 0 {
							ca.OnCircuitUp(now)
						} else {
							ca.OnCircuitDown(now)
						}
					}
					a.Undo()
				}
				w := a.Cwnd()
				if math.IsNaN(w) || math.IsInf(w, 0) || w < 1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestResetEqualsNew: for every algorithm NewFactory knows, an instance driven
// through growth, recovery, an RTO, an undo and (reTCP) a circuit ramp, with a
// trace hook attached, is after Reset field for field what the factory
// returns — the comparison walks the struct, so a field added later and not
// covered by Reset fails here — and behaves as a fresh instance from there.
func TestResetEqualsNew(t *testing.T) {
	drive := func(a Algorithm) {
		now := us(1)
		a.OnAck(AckEvent{Now: now, Acked: 30, ECEMarked: 4, SRTT: 40 * sim.Microsecond})
		if ca, ok := a.(CircuitAware); ok {
			ca.OnCircuitUp(now.Add(sim.Microsecond))
		}
		a.OnEnterRecovery(now.Add(2*sim.Microsecond), int(a.Cwnd()))
		a.OnRecoveryExit(now.Add(3 * sim.Microsecond))
		for i := 0; i < 50; i++ { // well into congestion avoidance (CUBIC's epoch, DCTCP's windows)
			a.OnAck(AckEvent{Now: now.Add(sim.Dur(10+i) * sim.Microsecond), Acked: 3, ECEMarked: i % 2, SRTT: 40 * sim.Microsecond})
		}
		a.OnRTO(now.Add(100*sim.Microsecond), int(a.Cwnd()))
		a.Undo()
		if ca, ok := a.(CircuitAware); ok {
			ca.OnCircuitUp(now.Add(101 * sim.Microsecond))
			ca.OnCircuitDown(now.Add(102 * sim.Microsecond))
			ca.OnCircuitUp(now.Add(103 * sim.Microsecond))
		}
	}
	for _, alg := range algorithms {
		t.Run(alg.name, func(t *testing.T) {
			a, fresh := alg.mk(), alg.mk()
			a.(interface{ SetTrace(TraceFunc) }).SetTrace(func(string, float64, float64) {})
			drive(a)
			if reflect.DeepEqual(a, fresh) {
				t.Fatal("driving the instance left it as constructed: the test shows nothing")
			}
			a.Reset()
			if !reflect.DeepEqual(a, fresh) {
				t.Fatalf("after Reset:\n got %+v\nwant %+v", a, fresh)
			}
			drive(a)
			drive(fresh)
			if !reflect.DeepEqual(a, fresh) {
				t.Errorf("a reset instance diverged from a fresh one:\n got %+v\nwant %+v", a, fresh)
			}
		})
	}
	// The constructor's argument survives: a non-default ramp factor.
	r := NewReTCP(5)
	drive(r)
	r.Reset()
	if !reflect.DeepEqual(r, NewReTCP(5)) {
		t.Errorf("after Reset: %+v, want %+v", r, NewReTCP(5))
	}
}
