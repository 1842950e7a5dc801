package sim_test

import (
	"slices"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

// fuzzRec is one executed event: lane 0 is the control lane, lane r+1 rack r.
type fuzzRec struct {
	at   sim.Time
	lane int
	val  int64
}

// runFuzzEngine drives one synthetic scenario: a control lane ticking with
// drifting periods (the schedule stand-in) and per-rack event chains with
// seeded random gaps. It returns every executed event in execution order.
func runFuzzEngine(t *testing.T, seed int64, racks int, look, period sim.Dur, end sim.Time) []fuzzRec {
	var log []fuzzRec
	e := sim.NewSharded(seed, racks, 1)
	e.SetLookahead(look)

	for r := 0; r < racks; r++ {
		rk := e.RackLoop(r)
		n := int64(0)
		var step func()
		step = func() {
			n++
			log = append(log, fuzzRec{rk.Now(), r + 1, n})
			rk.After(sim.Dur(rk.Rand().Int63n(int64(period)))+1, step)
		}
		rk.After(sim.Dur(r)+1, step)
	}

	// Control lane: drifting ticks. At every tick the engine has synced all
	// lane clocks to the barrier instant; a lane ahead of the control clock
	// would mean it executed past the barrier.
	ctl := e.Control()
	var tick func()
	tick = func() {
		now := ctl.Now()
		for r := 0; r < racks; r++ {
			if rn := e.RackLoop(r).Now(); rn != now {
				t.Errorf("barrier at %d: rack %d clock %d (lane ran past its horizon or was not synced)", now, r, rn)
			}
		}
		log = append(log, fuzzRec{now, 0, 0})
		ctl.After(period+sim.Dur(ctl.Rand().Int63n(int64(period))), tick)
	}
	ctl.After(period, tick)

	e.RunUntil(end)
	if uint64(len(log)) > e.Fired() {
		t.Errorf("%d events logged, %d fired", len(log), e.Fired())
	}
	return log
}

// FuzzShardLookahead fuzzes the window/barrier computation over rack counts,
// lookaheads and control cadences with drift, asserting that no lane ever
// executes past a barrier (desynced barrier clocks), that every lane's events
// and the control lane's ticks each execute in time order, and that the
// execution is a function of its inputs: the same scenario run again executes
// the same events in the same order.
func FuzzShardLookahead(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(19), uint16(50))
	f.Add(int64(7), uint8(8), uint16(19), uint16(200))
	f.Add(int64(3), uint8(3), uint16(1), uint16(7))
	f.Add(int64(42), uint8(5), uint16(100), uint16(13))
	f.Fuzz(func(t *testing.T, seed int64, racks uint8, lookUs, periodUs uint16) {
		nr := 2 + int(racks%7) // 2..8 racks
		look := sim.Dur(1+int(lookUs%100)) * sim.Microsecond
		period := sim.Dur(1+int(periodUs%200)) * sim.Microsecond
		end := sim.Time(40 * period)

		got := runFuzzEngine(t, seed, nr, look, period, end)
		if len(got) == 0 {
			t.Fatal("nothing executed")
		}
		if again := runFuzzEngine(t, seed, nr, look, period, end); !slices.Equal(got, again) {
			t.Fatalf("two executions of one scenario differ (%d vs %d events)", len(got), len(again))
		}
		last := make([]sim.Time, nr+1)
		for _, r := range got {
			if r.at < last[r.lane] || r.at > end {
				t.Fatalf("lane %d executed an event at %d after one at %d (horizon %d)", r.lane, r.at, last[r.lane], end)
			}
			last[r.lane] = r.at
		}
	})
}
