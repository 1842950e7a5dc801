package core

import (
	"math"
	"reflect"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// TestEpochWraparoundSwitches drives the policy across the uint32 epoch wrap:
// post-wrap epochs must switch normally and pre-wrap replays must be dropped.
func TestEpochWraparoundSwitches(t *testing.T) {
	e := newEnv(t, Options{}, nil)
	e.establish()

	const max = math.MaxUint32
	e.a.Notify(1, max) // fresh
	if e.pa.ActiveTDN() != 1 {
		t.Fatal("pre-wrap notification not applied")
	}
	e.a.Notify(0, 1) // wrapped past MaxUint32 (0 would bypass the gate)
	if e.pa.ActiveTDN() != 0 {
		t.Fatal("post-wrap notification not applied")
	}
	e.a.Notify(1, max) // late replay of the pre-wrap epoch
	if e.pa.ActiveTDN() != 0 {
		t.Fatal("stale pre-wrap replay applied after the wrap")
	}
	if e.a.Stats.NotifiesStale != 1 {
		t.Fatalf("NotifiesStale = %d, want 1", e.a.Stats.NotifiesStale)
	}
	if e.pa.Stats().Switches != 2 {
		t.Fatalf("Switches = %d, want 2", e.pa.Stats().Switches)
	}
}

// alternating is a schedule of TDNs 0 and 1 in turn, one day each, no
// nights.
type alternating sim.Dur

func (d alternating) At(t sim.Time) (int, bool, sim.Time) {
	day := sim.Time(d)
	return int(t/day) % 2, true, (t/day + 1) * day
}

// TestDeadmanInfersTDNFromSchedule starves the policy of notifications
// entirely: past the horizon it must start tracking the nominal schedule
// instead of sitting on the attach-time TDN forever.
func TestDeadmanInfersTDNFromSchedule(t *testing.T) {
	sched := alternating(100 * sim.Microsecond)
	e := newEnv(t, Options{DeadmanHorizon: 250 * sim.Microsecond}, nil)
	e.pa.Schedule, e.pb.Schedule = sched, sched
	e.establish()

	e.runFor(2 * sim.Millisecond) // no notifications at all
	st := e.pa.Stats()
	if st.DeadmanEngaged == 0 {
		t.Fatal("deadman never engaged with zero notifications")
	}
	if want, _, _ := sched.At(e.loop.Now()); e.pa.ActiveTDN() != want {
		t.Fatalf("active TDN %d, schedule says %d", e.pa.ActiveTDN(), want)
	}

	// A real notification re-anchors the horizon and keeps counting as a
	// notified switch, not an inferred one.
	engaged := st.DeadmanEngaged
	e.switchTDN(1 - e.pa.ActiveTDN())
	if e.pa.Stats().DeadmanEngaged != engaged {
		t.Fatal("notified switch miscounted as deadman engagement")
	}
	e.pa.StopDeadman()
	e.pb.StopDeadman()
}

// TestDeadmanWithoutScheduleOnlyWatches: a deadman armed with no schedule
// bound has nothing to infer from, so silence past the horizon switches
// nothing, and the timer keeps re-arming until stopped.
func TestDeadmanWithoutScheduleOnlyWatches(t *testing.T) {
	e := newEnv(t, Options{DeadmanHorizon: 250 * sim.Microsecond}, nil)
	e.establish()
	e.runFor(2 * sim.Millisecond)
	if st := e.pa.Stats(); st.DeadmanEngaged != 0 || st.Switches != 0 {
		t.Errorf("with no schedule bound: %+v, want no switch", st)
	}
	if !e.pa.deadmanTimer.Active() {
		t.Error("the deadman stopped re-arming")
	}
	e.pa.StopDeadman()
	e.pb.StopDeadman()
}

// TestResetEqualsNew: a policy that has switched TDNs on notifications and on
// its deadman, counted stale ones and carries a lag histogram is, after Reset,
// what New returns for the same arguments; and reopened with its connection
// it is what a new policy is once attached: TDN 0, no change pointer, zero
// counters, the connection's epoch gate open again, and exactly one deadman
// armed a horizon ahead. The struct is compared whole (the bound callback, the
// connection and the timer handle aside), so a field added later and not reset
// fails, the bound schedule and lag histogram among them.
func TestResetEqualsNew(t *testing.T) {
	opts := Options{DeadmanHorizon: 250 * sim.Microsecond}
	sched := alternating(100 * sim.Microsecond)
	e := newEnv(t, opts, nil)
	e.pa.Schedule, e.pb.Schedule = sched, sched
	e.pa.DeadmanLag = trace.NewRegistry().Hist("lag")
	e.establish()
	e.a.QueueBytes(40 * 8960)
	e.runFor(2 * sim.Millisecond) // silence: the deadman engages
	e.switchTDN(1 - e.pa.ActiveTDN())
	e.a.Notify(7, e.epoch+1) // out of range
	e.runFor(100 * sim.Microsecond)
	used := e.pa.Stats()
	if _, changed := e.pa.ChangePointer(); used.DeadmanEngaged == 0 || used.Switches < 2 || used.StaleNotifies == 0 || !changed {
		t.Fatalf("set-up: %+v, change pointer %v", used, changed)
	}

	// same compares two policies field for field, less what is per instance.
	same := func(what string, got, want *TDTCP) {
		t.Helper()
		g, w := *got, *want
		for _, p := range []*TDTCP{&g, &w} {
			p.c, p.deadmanFn, p.deadmanTimer = nil, nil, sim.Timer{}
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got %+v\nwant %+v", what, g, w)
		}
	}
	e.pb.StopDeadman()
	e.pb.Reset()
	same("after Reset", e.pb, New(2, opts))

	e.pa.StopDeadman()
	e.a.Release()
	e.runFor(200 * sim.Millisecond) // the links and the peer's timers drain
	e.a.Reopen(func(*packet.Segment) {})
	fresh := New(2, opts)
	tcp.NewConn(e.loop, tcp.Config{NumTDNs: 2, Policy: fresh}, func(*packet.Segment) {})
	same("after Reopen", e.pa, fresh)
	if !e.pa.deadmanTimer.Active() || e.pa.deadmanTimer.When() != e.loop.Now().Add(opts.DeadmanHorizon) {
		t.Errorf("reopened policy's deadman: armed %v for %v, want armed for %v",
			e.pa.deadmanTimer.Active(), e.pa.deadmanTimer.When(), e.loop.Now().Add(opts.DeadmanHorizon))
	}
	// The connection's gate is open again: epoch 1 is fresh, not stale.
	e.a.Notify(1, 1)
	if e.pa.ActiveTDN() != 1 || e.a.Stats.NotifiesStale != 0 {
		t.Errorf("epoch 1 on the reopened connection: active TDN %d, %d stale", e.pa.ActiveTDN(), e.a.Stats.NotifiesStale)
	}
	// Reset without StopDeadman still leaves one deadman, not two.
	e.pa.Reset()
	e.pa.Attach(e.a)
	before := e.loop.Fired()
	e.runFor(10 * opts.DeadmanHorizon)
	e.pa.StopDeadman()
	fresh.StopDeadman()
	if n := e.loop.Fired() - before; n > 2*12 { // this policy's and fresh's, ten horizons each, with slack
		t.Errorf("%d events over ten horizons: more than one deadman per policy is running", n)
	}
}
