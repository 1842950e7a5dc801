// The lane engine: one sub-loop per rack plus a control loop, executed inline
// on the caller's goroutine inside conservative lookahead windows.
//
// Reachable from benchmark/ only. No run uses it: experiments, the facade,
// tdsim and tdserve all execute on a plain Loop, and rdcn wires every rack
// onto the loop it is given (rdcn.Config.Cluster is ignored). The two ladder
// rungs in benchmark/ladder.go are this file's last callers: rungSharded times
// the window executor on two rack lanes, and the 8-rack rungForward drives a
// network built on Control() through RunUntil. The file goes when ROADMAP
// item 2 drops the names from benchmark/.
//
// Each lane is a Loop and fires its own events in (time, arming order). A lane
// executes events in [tb, W) where tb is the global minimum pending time and
// W = min(ctlHead, tb+L, end+1), L being the lookahead SetLookahead installs.
// Lanes exchange nothing, so any L is safe. The control loop's head caps every
// window; control events run one instant at a time, between windows, with
// every lane clock synced to that instant.
package sim

// ShardedLoop is the lane engine. Construct with NewSharded; wire components
// to Control() and RackLoop(r); then drive with RunUntil exactly like a Loop.
type ShardedLoop struct {
	ctl   *Loop
	racks []*Loop
	look  Dur // conservative lookahead; see SetLookahead
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
		ctl:   NewLoop(seed),
		look:  1, // safe floor; SetLookahead installs the window span
		racks: make([]*Loop, nracks),
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

// Control returns the control lane's loop. Its events run one instant at a
// time between windows, and its head caps every window.
func (e *ShardedLoop) Control() *Loop { return e.ctl }

// RackLoop returns rack r's lane loop.
func (e *ShardedLoop) RackLoop(r int) *Loop { return e.racks[r] }

// SetLookahead installs the lookahead: windows span at most d. A d below 1
// is raised to 1.
func (e *ShardedLoop) SetLookahead(d Dur) {
	if d < 1 {
		d = 1
	}
	e.look = d
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
	if at, has := e.ctl.peek(); has {
		tb, ok = at, true
	}
	for _, rk := range e.racks {
		if at, has := rk.peek(); has && (!ok || at < tb) {
			tb, ok = at, true
		}
	}
	return tb, ok
}

// RunUntil executes all events with time ≤ end, lane by lane inside each
// window, and then sets every lane clock to end, mirroring Loop.RunUntil.
func (e *ShardedLoop) RunUntil(end Time) {
	for {
		tb, ok := e.minHead()
		if !ok || tb > end {
			break
		}
		if ctlAt, has := e.ctl.peek(); has && ctlAt == tb {
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
		if ctlAt, has := e.ctl.peek(); has && ctlAt < w {
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
