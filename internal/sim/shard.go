// Sharded deterministic event loop: a conservative parallel-DES engine that
// partitions a simulation into one sub-loop per rack plus one control loop,
// executes rack lanes on a bounded worker pool inside lookahead windows, and
// synchronizes at rotor matching boundaries — while producing an observable
// trace byte-identical to sequential execution for EVERY shard count.
//
// # Determinism argument (DESIGN.md §14)
//
// Every event carries a globally-unique scheduling key laneKey|seq (lane 0
// is the control loop, lane r+1 is rack r; seq counts arms within the
// lane), and the engine's canonical execution order is ascending (time,
// key). That order is a function of the simulation alone — lanes, arms, and
// times never depend on the shard count, because the engine ALWAYS builds R
// rack lanes regardless of how many workers execute them. Sharding only
// changes which worker runs which lane inside a window:
//
//   - Windows: a lane executes events in [tb, W) where tb is the global
//     minimum pending time and W = min(ctlHead, tb+L, end+1). L is the
//     conservative lookahead — no cross-rack interaction has latency < L
//     (it is derived from the fabric's link propagation delay), and
//     cross-rack deliveries travel through per-(src,dst) docks whose
//     transfers apply only at barriers, so nothing a lane does inside a
//     window can schedule work for another lane inside the same window.
//   - Barriers: the control loop's head caps every window, so windows never
//     cross a rotor reconfiguration; control events (matchings, VOQ
//     resizes, notifications) run with all workers parked, one instant at a
//     time, interleaving with lane output in canonical key order.
//   - Trace merge: inside a window each lane encodes its trace bytes into a
//     private spool marked per-event with (time, key); the barrier merges
//     all spools by (time, key) — a total order, since keys are globally
//     unique — and splices the result into the shared stream. Control
//     events relay directly (workers are parked), and lane 0 keys sort
//     before all rack keys at equal instants, so the spliced stream is
//     exactly the canonical order.
//
// Identical lanes + identical windows + a shard-count-independent merge
// give byte-identical traces for shards ∈ {1..R}; the parity suite in
// internal/experiments proves it end to end.
package sim

import (
	"sync"

	"github.com/rdcn-net/tdtcp/internal/trace"
)

// laneShift positions the lane tag above the per-lane arm counter in every
// scheduling key. 2^40 arms per lane is three orders of magnitude beyond
// the largest simulated week.
const laneShift = 40

// ShardOf is the deterministic shard key: rack r is executed by worker
// r % shards. It is exported so tooling and tests can reason about
// worker assignment; determinism never depends on it.
func ShardOf(rack, shards int) int {
	if shards <= 1 {
		return 0
	}
	return rack % shards
}

// ShardedLoop is the conservative parallel engine. Construct with
// NewSharded; wire components to Control() and RackLoop(r); then drive with
// RunUntil exactly like a sequential Loop.
//
// With shards == 1 the engine runs every lane inline on the caller's
// goroutine — zero goroutines, zero channels — making the sequential
// reference path literally the same code as the parallel one.
type ShardedLoop struct {
	ctl    *Loop
	racks  []*Loop
	shards int
	look   Dur // conservative lookahead; see SetLookahead

	// Cross-lane deferred work: slot src*R+dst holds at most one pending
	// flush (docks defer once per empty→non-empty transition per window).
	// dirty[src] lists the dst slots src filled this window, appended only
	// by src's worker, drained src-major at barriers so application order
	// is deterministic and shard-count-independent.
	deferred []func()
	dirty    [][]int32
	// laneDeferred[r] holds at most one per-lane barrier callback (DeferLane),
	// written only by lane r's worker and drained in lane order after the
	// pair deferrals.
	laneDeferred []func()

	// Tracing: the parent tracer plus one fork+spool per rack lane and the
	// per-lane span-id counters backing each fork's span source.
	tracer  *trace.Tracer
	forks   []*trace.Tracer
	spools  []*trace.Spool
	spanCtr []int64
	merged  []byte // barrier merge scratch, reused
	cursor  []int  // k-way merge cursors, reused

	// Worker pool, alive for the duration of one RunUntil leg (shards > 1
	// only). Coordinator → worker: wg.Add + channel send; worker →
	// coordinator: wg.Done — both establish happens-before, so lane state
	// is owned by exactly one goroutine at every point in time.
	work []chan Time
	wg   sync.WaitGroup
	exit sync.WaitGroup

	// Cooperative stop seam, polled at barriers only: a latched stop leaves
	// the trace a whole-window (hence byte-exact) prefix of the full run.
	stopFn    func() bool
	stopEvery uint64
	stopAt    uint64
	stopped   bool
}

// NewSharded returns an engine with nracks rack lanes and a control lane,
// executed by shards workers (clamped to [1, nracks]). The control loop is
// seeded with seed exactly like NewLoop(seed); each rack lane's RNG is
// seeded by a splitmix64 derivation of (seed, rack) so per-rack draws are a
// function of the rack, never of the worker executing it.
func NewSharded(seed int64, nracks, shards int) *ShardedLoop {
	if nracks < 1 {
		nracks = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > nracks {
		shards = nracks
	}
	e := &ShardedLoop{
		ctl:          NewLoop(seed),
		shards:       shards,
		look:         1, // safe floor; SetLookahead installs the real bound
		racks:        make([]*Loop, nracks),
		deferred:     make([]func(), nracks*nracks),
		dirty:        make([][]int32, nracks),
		laneDeferred: make([]func(), nracks),
		forks:        make([]*trace.Tracer, nracks),
		spools:       make([]*trace.Spool, nracks),
		spanCtr:      make([]int64, nracks),
		cursor:       make([]int, nracks),
	}
	for r := range e.racks {
		rk := NewLoop(int64(splitmix64(uint64(seed) + uint64(r) + 1)))
		rk.laneKey = uint64(r+1) << laneShift
		e.racks[r] = rk
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

// Control returns the control lane's loop. Schedule everything that is not
// owned by a single rack here: rotor transitions, samplers, the workload
// spawner, invariant checks.
func (e *ShardedLoop) Control() *Loop { return e.ctl }

// Racks returns the number of rack lanes.
func (e *ShardedLoop) Racks() int { return len(e.racks) }

// Shards returns the worker count the engine was built with (after
// clamping).
func (e *ShardedLoop) Shards() int { return e.shards }

// RackLoop returns rack r's lane loop. Components owned by rack r (hosts,
// VOQs, link drainers, connections) must arm their timers here.
func (e *ShardedLoop) RackLoop(r int) *Loop { return e.racks[r] }

// Lookahead returns the engine's conservative lookahead bound.
func (e *ShardedLoop) Lookahead() Dur { return e.look }

// SetLookahead installs the conservative lookahead: the minimum virtual
// latency of any cross-rack interaction. Windows span at most d, so a
// smaller d is always safe and merely slower. d must be positive.
func (e *ShardedLoop) SetLookahead(d Dur) {
	if d < 1 {
		d = 1
	}
	e.look = d
}

// SetTracer attaches the shared tracer to the control lane and a private
// fork (with its own flight ring, deterministic span-id source and, when the
// tracer streams anything, spool) to every rack lane. Call once, before the
// run starts.
func (e *ShardedLoop) SetTracer(t *trace.Tracer) {
	e.tracer = t
	e.ctl.SetTracer(t)
	for r, rk := range e.racks {
		f, sp := t.Fork()
		e.forks[r], e.spools[r] = f, sp
		rk.SetTracer(f)
		rk.spool = sp
		if f == nil {
			continue
		}
		lane := uint64(r+1) << laneShift
		ctr := &e.spanCtr[r]
		f.SetSpanSource(func() int64 {
			*ctr++
			return int64(lane | uint64(*ctr))
		})
	}
}

// spooling reports whether the lanes' forks have spools to fill: false
// without a tracer and under a flight-only one (see trace.Tracer.Fork), when
// windows run with no per-event marks, no sink switching and no merge.
func (e *ShardedLoop) spooling() bool { return e.spools[0] != nil }

// RackTracer returns rack r's fork of the shared tracer (nil when tracing
// is disabled). Per-rack components emit through it; its flight recorder
// holds the lane's last moments for post-mortem dumps.
func (e *ShardedLoop) RackTracer(r int) *trace.Tracer { return e.forks[r] }

// Defer registers fn to run at the next barrier, on the coordinator, with
// every worker parked. It is the only legal way for rack src's lane to
// affect rack dst's lane: docks call it when their stage buffer goes
// non-empty, and the barrier applies all flushes in (src, registration)
// order — deterministic because each lane's execution order is. At most one
// deferral per (src, dst) pair may be outstanding; a second one panics.
func (e *ShardedLoop) Defer(src, dst int, fn func()) {
	i := src*len(e.racks) + dst
	if e.deferred[i] != nil {
		panic("sim: duplicate cross-shard deferral for (src,dst) pair")
	}
	e.deferred[i] = fn
	e.dirty[src] = append(e.dirty[src], int32(dst))
}

// DeferLane registers fn to run at the next barrier, on the coordinator,
// after every (src, dst) pair deferral. It is Defer's per-lane sibling for
// cross-lane work not tied to one destination — e.g. repatriating consumed
// wire buffers to their home racks' pools. Lane r's worker is the only legal
// caller for slot r, at most once per window; a second registration panics.
func (e *ShardedLoop) DeferLane(r int, fn func()) {
	if e.laneDeferred[r] != nil {
		// Predeclared so the string→interface conversion is not attributed
		// to inlined hot-path callers.
		panic(errDupLaneDefer)
	}
	e.laneDeferred[r] = fn
}

var errDupLaneDefer any = "sim: duplicate per-lane deferral"

// drainDeferred applies all pending cross-lane flushes src-major. Runs on
// the coordinator at barriers only.
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

// Live returns the number of scheduled events still going to fire, summed
// across all lanes. Frames parked in cross-rack docks are not timers yet
// and are counted by the docks' own conservation ledgers.
func (e *ShardedLoop) Live() int {
	n := e.ctl.Live()
	for _, rk := range e.racks {
		n += rk.Live()
	}
	return n
}

// Now returns the engine's clock: the maximum lane clock, i.e. the time of
// the last executed event (lanes advance raggedly inside a window but
// reconverge at every barrier, and RunUntil leaves all lanes at end).
func (e *ShardedLoop) Now() Time {
	now := e.ctl.Now()
	for _, rk := range e.racks {
		if t := rk.Now(); t > now {
			now = t
		}
	}
	return now
}

// SetStopCheck installs a cooperative cancellation seam with the same
// contract as Loop.SetStopCheck, polled at window barriers (never inside a
// window), so a cancelled run's trace is a whole-window — and therefore
// byte-exact — prefix of the uncancelled run's.
func (e *ShardedLoop) SetStopCheck(every int, fn func() bool) {
	if fn == nil {
		e.stopFn, e.stopEvery, e.stopped = nil, 0, false
		return
	}
	if every <= 0 {
		every = DefaultStopEvery
	}
	e.stopFn = fn
	e.stopEvery = uint64(every)
	e.stopAt = e.Fired() + e.stopEvery
}

// Stopped reports whether the stop seam has latched.
func (e *ShardedLoop) Stopped() bool { return e.stopped }

func (e *ShardedLoop) shouldStop() bool {
	if e.stopped {
		return true
	}
	if e.stopFn == nil || e.Fired() < e.stopAt {
		return false
	}
	e.stopAt = e.Fired() + e.stopEvery
	if e.stopFn() {
		e.stopped = true
	}
	return e.stopped
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

// RunUntil executes all events with time ≤ end in canonical (time, key)
// order and then sets every lane clock to end, mirroring Loop.RunUntil.
// When the stop seam latches, it returns at a barrier with clocks left at
// the last executed window.
func (e *ShardedLoop) RunUntil(end Time) {
	if e.shards > 1 {
		e.startWorkers()
		defer e.stopWorkers()
	}
	for {
		e.drainDeferred()
		if e.shouldStop() {
			return
		}
		tb, ok := e.minHead()
		if !ok || tb > end {
			break
		}
		if ctlAt, has := e.ctl.head(); has && ctlAt == tb {
			// Control instant: sync every lane clock to tb first, so
			// control events that arm timers on rack lanes (connection
			// setup, notification delivery) arm relative to tb, exactly as
			// a sequential execution at time tb would.
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
		e.runRacks(w)
	}
	if !e.stopped {
		e.ctl.setNowAtLeast(end)
		for _, rk := range e.racks {
			rk.setNowAtLeast(end)
		}
	}
}

// runRacks executes every rack lane over the window [its head, w): inline
// with one shard, on the worker pool otherwise. Forks that stream spool for
// the duration so workers never touch the shared stream.
func (e *ShardedLoop) runRacks(w Time) {
	spooling := e.spooling()
	if spooling {
		for _, f := range e.forks {
			f.SetSpooling(true)
		}
	}
	if e.shards <= 1 {
		for _, rk := range e.racks {
			rk.runWindow(w)
		}
	} else {
		e.wg.Add(e.shards)
		for _, ch := range e.work {
			ch <- w
		}
		e.wg.Wait()
	}
	if spooling {
		for _, f := range e.forks {
			f.SetSpooling(false)
		}
		e.mergeSpools()
	}
}

// mergeSpools splices every lane's window output into the parent tracer in
// ascending (time, key) order — the canonical order — then resets the
// spools. Scratch buffers are reused, so the steady state allocates
// nothing.
func (e *ShardedLoop) mergeSpools() {
	e.merged = e.merged[:0]
	for i := range e.cursor {
		e.cursor[i] = 0
	}
	for {
		best := -1
		var bat int64
		var bkey uint64
		for i, sp := range e.spools {
			if e.cursor[i] >= sp.Chunks() {
				continue
			}
			at, key, _ := sp.Chunk(e.cursor[i])
			if best < 0 || at < bat || (at == bat && key < bkey) {
				best, bat, bkey = i, at, key
			}
		}
		if best < 0 {
			break
		}
		_, _, b := e.spools[best].Chunk(e.cursor[best])
		e.merged = append(e.merged, b...)
		e.cursor[best]++
	}
	e.tracer.WriteRaw(e.merged)
	for _, sp := range e.spools {
		sp.Reset()
	}
}

//lint:shardruntime The worker pool below is the engine's one concurrency
// seam. It is structured, bounded, and invisible to the simulation:
// coordinator→worker handoff is a WaitGroup.Add plus a channel send,
// worker→coordinator is WaitGroup.Done, so each lane's state is owned by
// exactly one goroutine at a time and the executed event order is fixed by
// the window algebra above, not by scheduling. The determinism lint bans go
// statements everywhere else in the deterministic packages.

// startWorkers launches one worker per shard for the duration of a RunUntil
// leg. Worker s executes every rack lane r with ShardOf(r, shards) == s,
// ascending, for each window it receives.
func (e *ShardedLoop) startWorkers() {
	e.work = make([]chan Time, e.shards)
	for s := range e.work {
		ch := make(chan Time, 1)
		e.work[s] = ch
		e.exit.Add(1)
		go func(shard int) {
			defer e.exit.Done()
			for w := range ch {
				for r := shard; r < len(e.racks); r += e.shards {
					e.racks[r].runWindow(w)
				}
				e.wg.Done()
			}
		}(s)
	}
}

// stopWorkers shuts the pool down and waits for every worker to exit, so a
// finished RunUntil leaves no goroutines behind.
func (e *ShardedLoop) stopWorkers() {
	for _, ch := range e.work {
		close(ch)
	}
	e.exit.Wait()
	e.work = nil
}

// --- Loop engine hooks -------------------------------------------------

// head reports the firing time of the loop's earliest live event,
// discarding stopped entries. Coordinator-only.
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

// runWindow executes every pending event with time strictly before w,
// marking the lane's spool with each event's (time, key) so the barrier
// merge can reconstruct the canonical order.
func (l *Loop) runWindow(w Time) {
	for {
		at, ok := l.peek()
		if !ok || at >= w {
			return
		}
		if l.spool != nil {
			e := l.events[0]
			l.spool.Mark(int64(e.at), e.seq)
		}
		l.Step()
	}
}
