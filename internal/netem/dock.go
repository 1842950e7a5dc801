package netem

import (
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// pending is one frame waiting out its propagation delay in a dock.
type pending struct {
	f   Frame
	due sim.Time
}

// Dock is the cross-lane propagation-delay stage: the lane engine's
// replacement for a Drainer's per-frame delivery events when source and
// destination rack live on different simulation lanes (internal/sim's
// ShardedLoop).
//
// Reachable from benchmark/ only, through rdcn.Config.Cluster: no run builds
// one. It goes with sim/shard.go when ROADMAP item 2 drops the names from
// benchmark/ladder.go.
//
// A frame leaving rack src's uplink toward rack dst is staged on the SOURCE
// lane with an absolute due time (src clock + propagation delay). The
// conservative lookahead guarantees due lands at or beyond the current
// window's end, so the frame cannot be owed to the destination before the
// next barrier; at that barrier the engine runs the dock's deferred flush,
// moving the staged frames into the due-ordered ring and arming a single
// timer on the destination lane.
//
// Frames whose due expires at one instant are handed to Out in (due,
// insertion) order.
type Dock struct {
	src, dst int
	srcLoop  *sim.Loop
	dstLoop  *sim.Loop
	deferFn  func(src, dst int, fn func())

	// Out is the destination-side sink, same contract as Drainer's.
	Out Sink

	stage   []pending // src-owned: frames docked this window
	flushFn func()    // bound once; registered with deferFn on first stage

	ring   []pending // dst-owned: due-ordered, served by one timer
	head   int
	timer  sim.Timer
	fireFn func()
	out    []pending // scratch batch, reused across fires

	// Conservation ledger: frames staged and frames delivered.
	armed     uint64
	delivered uint64
}

// NewDock returns a dock carrying frames from rack src's lane to rack dst's
// lane. deferFn registers a barrier callback with the engine (ShardedLoop's
// Defer); the dock calls it at most once per window.
func NewDock(src, dst int, srcLoop, dstLoop *sim.Loop, deferFn func(src, dst int, fn func())) *Dock {
	k := &Dock{src: src, dst: dst, srcLoop: srcLoop, dstLoop: dstLoop, deferFn: deferFn}
	k.flushFn = k.flush
	k.fireFn = k.fire
	return k
}

// Add stages a frame due delay after the source lane's clock.
//
//lint:hotpath runs once per cross-lane frame
func (k *Dock) Add(f Frame, delay sim.Dur) {
	if len(k.stage) == 0 {
		k.deferFn(k.src, k.dst, k.flushFn)
	}
	k.stage = append(k.stage, pending{f: f, due: k.srcLoop.Now().Add(delay)})
	k.armed++
}

// flush moves the staged frames into the destination ring, keeping it
// due-ordered (stable: equal dues keep arrival order, and staged dues are
// nondecreasing, so the backward scan is almost always a no-op), then arms
// the destination timer at the head due. Runs at a barrier.
func (k *Dock) flush() {
	for _, p := range k.stage {
		k.ring = append(k.ring, p)
		for i := len(k.ring) - 1; i > k.head && k.ring[i-1].due > p.due; i-- {
			k.ring[i], k.ring[i-1] = k.ring[i-1], k.ring[i]
		}
	}
	k.stage = k.stage[:0]
	headDue := k.ring[k.head].due
	if k.timer.Active() {
		if k.timer.When() <= headDue {
			return
		}
		k.timer.Stop()
	}
	k.timer = k.dstLoop.At(headDue, k.fireFn)
}

// fire delivers every frame whose due has arrived, copied out first, so
// synchronous downstream sends cannot alias the ring.
//
//lint:hotpath runs once per distinct cross-lane delivery instant
func (k *Dock) fire() {
	now := k.dstLoop.Now()
	out := k.out[:0]
	for k.head < len(k.ring) && k.ring[k.head].due <= now {
		out = append(out, k.ring[k.head])
		k.head++
	}
	if k.head*2 >= len(k.ring) {
		k.ring = k.ring[:copy(k.ring, k.ring[k.head:])]
		k.head = 0
	}
	if k.head < len(k.ring) {
		k.timer = k.dstLoop.At(k.ring[k.head].due, k.fireFn)
	}
	k.out = out
	k.delivered += uint64(len(out))
	for i := range out {
		k.Out(out[i].f)
	}
}

// InFlight reports the number of frames the dock currently owns (staged,
// ringed, or awaiting their due).
func (k *Dock) InFlight() int { return int(k.armed - k.delivered) }
