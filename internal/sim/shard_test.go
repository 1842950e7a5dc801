package sim_test

import (
	"slices"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

// TestShardedLoopIsOneLoop pins the shim's contract: every lane is the one
// loop, SetLookahead changes nothing, and the seed draws NewLoop's stream.
func TestShardedLoopIsOneLoop(t *testing.T) {
	type rec struct {
		at sim.Time
		id int
	}
	// timers arms 64 self-re-arming timers round-robin over loops, drives
	// them to 2 ms with run and logs every firing.
	timers := func(loops []*sim.Loop, run func(sim.Time), fired func() uint64) ([]rec, uint64) {
		var log []rec
		for i := range 64 {
			l, period := loops[i%len(loops)], sim.Dur(20+i*37%64)*sim.Microsecond
			var fn func()
			fn = func() { log = append(log, rec{l.Now(), i}); l.After(period, fn) }
			l.After(period, fn)
		}
		run(2 * sim.Time(sim.Millisecond))
		return log, fired()
	}
	for _, seed := range []int64{1, 7} {
		e := sim.NewSharded(seed, 8, 1)
		for r := range 8 {
			if e.RackLoop(r) != e.Control() {
				t.Fatalf("seed %d: RackLoop(%d) is not Control()", seed, r)
			}
		}
		e.SetLookahead(19 * sim.Microsecond)
		got, gotN := timers([]*sim.Loop{e.RackLoop(0), e.RackLoop(1)}, e.RunUntil, e.Fired)
		ref := sim.NewLoop(seed)
		want, wantN := timers([]*sim.Loop{ref}, ref.RunUntil, ref.Fired)
		if !slices.Equal(got, want) || gotN != wantN || len(got) == 0 {
			t.Fatalf("seed %d: %d firings (Fired %d) on the shim, %d (Fired %d) on a plain loop", seed, len(got), gotN, len(want), wantN)
		}
		a, b := sim.NewSharded(seed, 8, 1).Control().Rand(), sim.NewLoop(seed).Rand()
		for range 16 {
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("seed %d: shim draws %d, NewLoop draws %d", seed, x, y)
			}
		}
	}
}
