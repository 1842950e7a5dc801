// The lane engine: one sub-loop per rack plus a control loop, executed inline
// on the caller's goroutine inside conservative lookahead windows.
//
// Reachable from benchmark/ only. No run uses it: experiments, the facade,
// tdsim and tdserve all execute on a plain Loop, and the two ladder rungs in
// benchmark/ladder.go (rungSharded, the 8-rack rungForward) are this file's
// last callers. It is kept, untraced and single-threaded, exactly as those
// rungs exercise it, and goes — with netem/dock.go and rdcn.Config.Cluster —
// when ROADMAP item 2 drops the names from benchmark/.
//
// Each lane is a Loop and fires its own events in (time, arming order). A lane
// executes events in [tb, W) where tb is the global minimum pending time and
// W = min(ctlHead, tb+L, end+1). L is the lookahead: no cross-rack interaction
// has latency < L, and cross-rack deliveries travel through per-(src,dst)
// docks whose transfers apply only at barriers (Defer), so nothing a lane does
// inside a window can schedule work for another lane inside the same window.
// The control loop's head caps every window; control events run one instant at
// a time, between windows.
package sim

// ShardedLoop is the lane engine. Construct with NewSharded; wire components
// to Control() and RackLoop(r); then drive with RunUntil exactly like a Loop.
type ShardedLoop struct {
	ctl   *Loop
	racks []*Loop
	look  Dur // conservative lookahead; see SetLookahead

	// Cross-lane deferred work: slot src*R+dst holds at most one pending
	// flush (docks defer once per empty→non-empty transition per window).
	// dirty[src] lists the dst slots src filled this window, drained
	// src-major at barriers so application order is deterministic.
	deferred []func()
	dirty    [][]int32
	// laneDeferred[r] holds at most one per-lane barrier callback (DeferLane),
	// drained in lane order after the pair deferrals.
	laneDeferred []func()
}

// NewSharded returns an engine with nracks rack lanes and a control lane.
// shards must be 1: the lanes run inline, in lane order, and the parameter
// stays only because benchmark/ passes it. The control loop is seeded with seed exactly like NewLoop(seed);
// each rack lane's RNG is seeded by a splitmix64 derivation of (seed, rack).
func NewSharded(seed int64, nracks, shards int) *ShardedLoop {
	if shards != 1 {
		panic("sim: NewSharded runs its lanes inline; shards must be 1")
	}
	e := &ShardedLoop{
		ctl:          NewLoop(seed),
		look:         1, // safe floor; SetLookahead installs the real bound
		racks:        make([]*Loop, nracks),
		deferred:     make([]func(), nracks*nracks),
		dirty:        make([][]int32, nracks),
		laneDeferred: make([]func(), nracks),
	}
	for r := range e.racks {
		e.racks[r] = NewLoop(int64(splitmix64(uint64(seed) + uint64(r) + 1)))
	}
	return e
}

// splitmix64 is the standard seed-spreading finalizer: adjacent inputs map
// to statistically independent outputs, so per-rack RNG streams derived
// from seed+rack do not correlate.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Control returns the control lane's loop: everything not owned by a single
// rack (rotor transitions, notification fan-out) is scheduled here.
func (e *ShardedLoop) Control() *Loop { return e.ctl }

// Racks returns the number of rack lanes.
func (e *ShardedLoop) Racks() int { return len(e.racks) }

// RackLoop returns rack r's lane loop. Components owned by rack r (hosts,
// VOQs, link drainers) arm their timers here.
func (e *ShardedLoop) RackLoop(r int) *Loop { return e.racks[r] }

// SetLookahead installs the conservative lookahead: the minimum virtual
// latency of any cross-rack interaction. Windows span at most d, so a
// smaller d is always safe and merely slower. d must be positive.
func (e *ShardedLoop) SetLookahead(d Dur) {
	if d < 1 {
		d = 1
	}
	e.look = d
}

// Defer registers fn to run at the next barrier, between windows. It is the
// only legal way for rack src's lane to affect rack dst's lane: docks call it
// when their stage buffer goes non-empty, and the barrier applies all flushes
// in (src, registration) order. At most one deferral per (src, dst) pair may
// be outstanding; a second one panics.
func (e *ShardedLoop) Defer(src, dst int, fn func()) {
	i := src*len(e.racks) + dst
	if e.deferred[i] != nil {
		panic("sim: duplicate cross-shard deferral for (src,dst) pair")
	}
	e.deferred[i] = fn
	e.dirty[src] = append(e.dirty[src], int32(dst))
}

// DeferLane registers fn to run at the next barrier, after every (src, dst)
// pair deferral. It is Defer's per-lane sibling for cross-lane work not tied
// to one destination — repatriating consumed wire buffers to their home racks'
// pools. At most once per lane per window; a second registration panics.
func (e *ShardedLoop) DeferLane(r int, fn func()) {
	if e.laneDeferred[r] != nil {
		// Predeclared so the string→interface conversion is not attributed
		// to inlined hot-path callers.
		panic(errDupLaneDefer)
	}
	e.laneDeferred[r] = fn
}

var errDupLaneDefer any = "sim: duplicate per-lane deferral"

// drainDeferred applies all pending cross-lane flushes src-major, at barriers
// only.
func (e *ShardedLoop) drainDeferred() {
	for src, d := range e.dirty {
		if len(d) == 0 {
			continue
		}
		base := src * len(e.racks)
		for _, dst := range d {
			fn := e.deferred[base+int(dst)]
			e.deferred[base+int(dst)] = nil
			fn()
		}
		e.dirty[src] = d[:0]
	}
	for r, fn := range e.laneDeferred {
		if fn != nil {
			e.laneDeferred[r] = nil
			fn()
		}
	}
}

// Fired returns the total number of events executed across all lanes.
func (e *ShardedLoop) Fired() uint64 {
	n := e.ctl.Fired()
	for _, rk := range e.racks {
		n += rk.Fired()
	}
	return n
}

// minHead reports the earliest pending event time across all lanes.
func (e *ShardedLoop) minHead() (Time, bool) {
	var tb Time
	ok := false
	if at, has := e.ctl.head(); has {
		tb, ok = at, true
	}
	for _, rk := range e.racks {
		if at, has := rk.head(); has && (!ok || at < tb) {
			tb, ok = at, true
		}
	}
	return tb, ok
}

// RunUntil executes all events with time ≤ end, lane by lane inside each
// window, and then sets every lane clock to end, mirroring Loop.RunUntil.
func (e *ShardedLoop) RunUntil(end Time) {
	for {
		e.drainDeferred()
		tb, ok := e.minHead()
		if !ok || tb > end {
			break
		}
		if ctlAt, has := e.ctl.head(); has && ctlAt == tb {
			// Control instant: sync every lane clock to tb first, so
			// control events that arm timers on rack lanes (notification
			// delivery) arm relative to tb, exactly as a sequential
			// execution at time tb would.
			for _, rk := range e.racks {
				rk.setNowAtLeast(tb)
			}
			e.ctl.runInstant(tb)
			continue
		}
		// Window [tb, W): every pending control event is > tb here, so
		// minHead is the minimum rack head and the window is capped by the
		// next control event (rotor boundary), the lookahead, and end.
		w := end + 1
		if ctlAt, has := e.ctl.head(); has && ctlAt < w {
			w = ctlAt
		}
		if lw := tb.Add(e.look); lw < w {
			w = lw
		}
		for _, rk := range e.racks {
			rk.runWindow(w)
		}
	}
	e.ctl.setNowAtLeast(end)
	for _, rk := range e.racks {
		rk.setNowAtLeast(end)
	}
}

// --- Loop engine hooks -------------------------------------------------

// head reports the firing time of the loop's earliest pending event.
func (l *Loop) head() (Time, bool) { return l.peek() }

// setNowAtLeast advances the clock to t without executing anything. The
// engine calls it only when it has proven no event earlier than t is
// pending on this lane.
func (l *Loop) setNowAtLeast(t Time) {
	if l.now < t {
		l.now = t
	}
}

// runInstant executes every pending event with time exactly t, including
// events those events schedule at t.
func (l *Loop) runInstant(t Time) {
	for {
		at, ok := l.peek()
		if !ok || at != t {
			return
		}
		l.Step()
	}
}

// runWindow executes every pending event with time strictly before w.
func (l *Loop) runWindow(w Time) {
	for {
		at, ok := l.peek()
		if !ok || at >= w {
			return
		}
		l.Step()
	}
}
