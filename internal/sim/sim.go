// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the network emulation (links, queues, endpoints) in this repository
// is driven by a single Loop. Time is virtual and advances only when events
// fire, so a multi-millisecond experiment over a 100-Gbps fabric runs in
// a fraction of a second of wall time and is exactly reproducible: two runs
// with the same seed produce identical event orders and therefore identical
// traces.
//
// # Allocation discipline
//
// The loop is the hottest path in the repository: a simulated optical week
// executes millions of events. Scheduling is therefore allocation-free after
// warmup (see DESIGN.md §10): timers live in a slab recycled through a
// loop-owned free list, the pending queue is a concrete 4-ary heap of small
// value entries (no interface boxing, no per-event pointers), and Timer
// handles are plain values carrying a generation counter so a stale handle
// to a recycled slot can never stop a later timer.
//
// A loop also outlives its run: Reset returns it to time zero under a new
// seed and keeps the heap, the slab and the free list it grew, so a sweep of
// runs handing one loop on grows that storage once. Reset advances every
// slot's generation, so a handle kept from the last run stays inert in the
// next.
package sim

import (
	"fmt"
	"math/rand"

	"github.com/rdcn-net/tdtcp/internal/trace"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately not time.Time: simulations start at zero and
// never involve wall clocks.
type Time int64

// Dur is a span of virtual time in nanoseconds. It is deliberately a defined
// type distinct from time.Duration: wall-clock durations must never leak into
// the simulation, and the short name keeps the two visually un-confusable.
// The simtime lint check enforces the separation across the sim-boundary
// packages.
type Dur int64

// Convenient duration units.
const (
	Nanosecond  Dur = 1
	Microsecond     = 1000 * Nanosecond
	Millisecond     = 1000 * Microsecond
	Second          = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Dur) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Dur { return Dur(t - u) }

// Microseconds reports t as a floating-point number of microseconds,
// convenient for trace output matching the paper's µs-scaled axes.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	return fmt.Sprintf("%.3fus", t.Microseconds())
}

// Microseconds reports d as a floating-point number of microseconds.
func (d Dur) Microseconds() float64 { return float64(d) / float64(Microsecond) }

func (d Dur) String() string {
	return fmt.Sprintf("%.3fus", d.Microseconds())
}

// Timer is a handle to a scheduled event. It is a small value (copy freely;
// the zero value is an inert handle on which every method is a no-op). A
// Timer may be stopped before it fires; stopping an already-fired or
// already-stopped timer is a no-op.
//
// Internally the handle names a slot in the loop's timer slab plus the
// generation that slot had when the event was scheduled. Slots are recycled
// once their event fires or is stopped, and each recycling bumps the
// generation, so a stale handle held across a firing can never observe — let
// alone stop — an unrelated later timer.
type Timer struct {
	l    *Loop
	at   Time
	slot int32
	gen  uint32
}

// Stop cancels the timer. It reports whether the call prevented the timer
// from firing. The queue entry leaves at once, in O(log n), found through
// the heap index its slot keeps, and the slot is recycled.
func (t Timer) Stop() bool {
	l := t.l
	if l == nil || int(t.slot) >= len(l.slots) {
		return false
	}
	s := &l.slots[t.slot]
	if s.gen != t.gen {
		return false
	}
	l.settle()
	l.remove(int(s.pos))
	l.freeSlot(t.slot)
	return true
}

// Active reports whether the timer is still pending. A slot is recycled
// when its event fires or is stopped, so the generation check is the whole
// answer.
func (t Timer) Active() bool {
	l := t.l
	return l != nil && int(t.slot) < len(l.slots) && l.slots[t.slot].gen == t.gen
}

// When returns the virtual time at which the timer fires (or would have
// fired, if stopped).
func (t Timer) When() Time { return t.at }

// event is one pending-queue entry: the firing time, a scheduling sequence
// number for deterministic same-instant ordering, and the slab slot holding
// the callback. Entries are plain values — pushing and popping never boxes
// through an interface and never allocates.
type event struct {
	at   Time
	seq  uint64
	slot int32
}

// slot is one timer slab cell. gen counts recyclings; pos is the heap index
// of the cell's queue entry, written by every sift, so Stop can remove the
// entry without searching for it.
type slot struct {
	fn  func()
	gen uint32
	pos int32
}

// Loop is a discrete-event simulation loop. The zero value is not usable
// until Reset; NewLoop does both.
type Loop struct {
	now    Time
	events []event // 4-ary min-heap ordered by (at, seq)
	slots  []slot  // timer slab; events reference it by index
	free   []int32 // recycled slab slots
	vacant bool    // events[0] is the fired entry, kept for replace-top
	seq    uint64
	rng    *rand.Rand
	fired  uint64
	tracer *trace.Tracer

	// PostEvent, when non-nil, runs after every executed event, once the
	// event's own callbacks (and anything they scheduled synchronously) have
	// returned. The invariant checker (internal/invariant) installs itself
	// here so it observes the simulation between events, never mid-update.
	// Costs one nil check per event when unset.
	PostEvent func()

	// Cooperative stop seam (SetStopCheck): stopFn is polled between events,
	// every stopEvery executed events; stopped latches once it returns true.
	stopFn    func() bool
	stopEvery uint64
	stopAt    uint64 // fired count at which stopFn is polled next
	stopped   bool
}

// DefaultStopEvery is the stop-check polling cadence used when SetStopCheck
// is called with every <= 0: infrequent enough that the predicted branch per
// event is free, frequent enough that a cancelled run stops within
// microseconds of wall time.
const DefaultStopEvery = 4096

// NewLoop returns a loop positioned at time zero whose random source is
// seeded with seed.
func NewLoop(seed int64) *Loop {
	l := new(Loop)
	l.Reset(seed)
	return l
}

// Reset returns the loop to the state NewLoop(seed) builds: time zero, no
// pending event, nothing fired, no tracer, PostEvent hook or stop check, and
// the random source reseeded with seed (rand.Rand.Seed gives the stream of
// rand.NewSource). It keeps the storage the loop has grown — the event heap,
// the timer slab and its free list — so a loop handed from run to run stops
// re-growing it. Every slot's generation advances, so a Timer kept from
// before Reset reports inactive and cannot stop the timer that reuses its
// slot. The callbacks of events still pending are dropped unrun.
func (l *Loop) Reset(seed int64) {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(seed))
	} else {
		l.rng.Seed(seed)
	}
	l.free = l.free[:0]
	for i := len(l.slots) - 1; i >= 0; i-- {
		s := &l.slots[i]
		s.fn = nil
		s.gen++
		l.free = append(l.free, int32(i))
	}
	*l = Loop{rng: l.rng, events: l.events[:0], slots: l.slots, free: l.free}
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Rand returns the loop's deterministic random source.
func (l *Loop) Rand() *rand.Rand { return l.rng }

// SetTracer attaches a structured event tracer. With the CatSim category
// enabled the loop emits a "fire" event (payload: the number of events still
// to fire after this one, and the fired count) for every executed event —
// cheap but voluminous; leave CatSim masked off unless debugging scheduler
// behaviour.
func (l *Loop) SetTracer(t *trace.Tracer) { l.tracer = t }

// Tracer returns the attached tracer (nil when tracing is disabled).
func (l *Loop) Tracer() *trace.Tracer { return l.tracer }

// Live returns the number of scheduled events that are still going to fire.
// The queue holds only those, plus a vacant root while a fired event's
// callback runs.
func (l *Loop) Live() int {
	if l.vacant {
		return len(l.events) - 1
	}
	return len(l.events)
}

// Fired returns the total number of events executed so far.
func (l *Loop) Fired() uint64 { return l.fired }

// less orders queue entries by (time, sequence): it is 1 when a fires before
// b and 0 otherwise. The sequence tie-break makes same-instant events fire in
// scheduling order, which keeps runs deterministic regardless of heap
// internals.
//
// It is arithmetic, not a comparison chain, so the sifts that call it carry
// no data-dependent branch per child. Times and sequence numbers stay below
// 2^62 (a Time is non-negative nanoseconds; 2^62 of them is 146 years, and
// seq counts scheduled events), so both differences, and the time difference
// doubled, fit in an int64 without overflow. Doubling the time difference and
// subtracting the sequence difference's sign bit gives a value whose sign is
// the lexicographic answer: any nonzero time difference outweighs the one bit.
//
// Hot path: every sift compares through here.
func less(a, b event) int {
	dt := int64(a.at - b.at)
	ds := int64(a.seq - b.seq)
	return int(uint64(dt<<1-int64(uint64(ds)>>63)) >> 63)
}

// siftUp restores heap order after appending the entry at index i.
//
// Hot path: runs on every event insertion.
func (l *Loop) siftUp(i int) {
	h, slots := l.events, l.slots
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if less(e, h[p]) == 0 {
			break
		}
		h[i] = h[p]
		slots[h[i].slot].pos = int32(i)
		i = p
	}
	h[i] = e
	slots[e.slot].pos = int32(i)
}

// siftDown restores heap order below index i. The smallest of a full set of
// four children is picked by a two-round tournament whose comparisons and
// selects are arithmetic, so the only data-dependent branch left is the loop
// exit; the last parent, which may have fewer than four children, scans them
// the same way.
//
// Hot path: runs on every event pop.
func (l *Loop) siftDown(i int) {
	h, slots := l.events, l.slots
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		var best int
		if c+3 < n {
			q := h[c : c+4 : c+4]
			a := less(q[1], q[0])
			b := 2 + less(q[3], q[2])
			best = c + a + (b-a)&-less(q[b&3], q[a&3])
		} else {
			best = c
			for j := c + 1; j < n; j++ {
				best += (j - best) & -less(h[j], h[best])
			}
		}
		if less(h[best], e) == 0 {
			break
		}
		h[i] = h[best]
		slots[h[i].slot].pos = int32(i)
		i = best
	}
	h[i] = e
	slots[e.slot].pos = int32(i)
}

// remove deletes the entry at heap index i: the last entry takes its place
// and sifts whichever way restores order.
//
// Hot path: runs once per popped or stopped event.
func (l *Loop) remove(i int) {
	h := l.events
	n := len(h) - 1
	l.events = h[:n]
	if i == n {
		return
	}
	h[i] = h[n]
	if i > 0 && less(h[i], h[(i-1)>>2]) == 1 {
		l.siftUp(i)
	} else {
		l.siftDown(i)
	}
}

// settle pops a vacant root: the entry of an event that has fired and whose
// callback scheduled nothing to take its place. peek and Stop call it before
// they read the heap; Live counts a vacant root out instead.
//
// Hot path: runs before every heap read.
func (l *Loop) settle() {
	if l.vacant {
		l.vacant = false
		l.remove(0)
	}
}

// allocSlot takes a slab cell from the free list (or grows the slab) and
// installs fn in it. Slab growth amortizes through append; the steady state
// recycles cells without touching the allocator.
//
// Hot path: runs on every timer arm.
func (l *Loop) allocSlot(fn func()) int32 {
	if n := len(l.free); n > 0 {
		i := l.free[n-1]
		l.free = l.free[:n-1]
		l.slots[i].fn = fn
		return i
	}
	l.slots = append(l.slots, slot{fn: fn, gen: 1})
	return int32(len(l.slots) - 1)
}

// freeSlot recycles a slab cell: the callback is dropped (so the loop never
// retains a dead closure) and the generation advances, invalidating every
// outstanding handle to the old timer.
//
// Hot path: runs once per fired or stopped event.
func (l *Loop) freeSlot(i int32) {
	s := &l.slots[i]
	s.fn = nil
	s.gen++
	l.free = append(l.free, i)
}

// schedulePastPanic lives out of line so At's fast path carries none of the
// panic message's allocations.
//
//go:noinline
func (l *Loop) schedulePastPanic(at Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, l.now))
}

// At schedules fn to run at absolute time at. Scheduling in the past (before
// Now) panics: it always indicates a logic error in the caller.
//
// The first At after an event fires takes the fired entry's place at the
// root and sifts down once, instead of the pop's sift-down and the push's
// sift-up. Keys are unique, so the heap holds the same set either way and
// pops in the same order.
//
// Hot path: every timer arm goes through here.
func (l *Loop) At(at Time, fn func()) Timer {
	if at < l.now {
		l.schedulePastPanic(at)
	}
	si := l.allocSlot(fn)
	e := event{at: at, seq: l.seq, slot: si}
	l.seq++
	if l.vacant {
		l.vacant = false
		l.events[0] = e
		l.siftDown(0)
	} else {
		l.events = append(l.events, e)
		l.siftUp(len(l.events) - 1)
	}
	return Timer{l: l, at: at, slot: si, gen: l.slots[si].gen}
}

// After schedules fn to run d after the current time. Negative d is clamped
// to zero.
//
// Hot path: the common timer-arm entry point.
func (l *Loop) After(d Dur, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return l.At(l.now.Add(d), fn)
}

// peek reports the firing time of the earliest pending event, popping a
// vacant root first. Step and RunUntil share it.
//
// Hot path: runs before every event fire.
func (l *Loop) peek() (Time, bool) {
	l.settle()
	if len(l.events) == 0 {
		return 0, false
	}
	return l.events[0].at, true
}

// Step executes the next pending event, advancing the clock to its time.
// It reports false when no events remain.
//
// Hot path: the event loop's inner iteration.
func (l *Loop) Step() bool {
	if _, ok := l.peek(); !ok {
		return false
	}
	e := l.events[0]
	fn := l.slots[e.slot].fn
	// Recycle the slot before running the callback: the firing timer is
	// spent, and anything fn schedules may immediately reuse the cell (under
	// a fresh generation, so the fired handle stays inert). The entry stays
	// at the root, vacant, for fn's first At to overwrite; if fn schedules
	// nothing, the next heap read pops it.
	l.freeSlot(e.slot)
	l.vacant = true
	l.now = e.at
	l.fired++
	if l.tracer.Enabled(trace.CatSim) {
		l.tracer.Emit(trace.CatSim, int64(l.now), "fire", -1, -1,
			float64(l.Live()), float64(l.fired), "")
	}
	fn()
	if l.PostEvent != nil {
		l.PostEvent()
	}
	return true
}

// SetStopCheck installs a cooperative cancellation seam: fn is polled
// between events — after every `every` executed events (DefaultStopEvery
// when every <= 0) — and once it returns true the loop latches into the
// stopped state and Run/RunUntil return without executing further events.
//
// The seam is deliberately OUTSIDE the determinism boundary: fn typically
// reads a deadline or an atomic flag written by another goroutine. That is
// safe for replayability because fn runs between events, never observes or
// mutates simulation state (clock, RNG, queue), and only decides whether
// the next event executes at all — so a stopped run's executed-event
// sequence (and therefore its trace) is a byte-identical prefix of the
// unstopped run's. fn must not touch the loop or anything scheduled on it.
//
// Passing a nil fn removes the seam (and clears a latched stop).
func (l *Loop) SetStopCheck(every int, fn func() bool) {
	if fn == nil {
		l.stopFn, l.stopEvery, l.stopped = nil, 0, false
		return
	}
	if every <= 0 {
		every = DefaultStopEvery
	}
	l.stopFn = fn
	l.stopEvery = uint64(every)
	l.stopAt = l.fired + l.stopEvery
}

// Stopped reports whether a stop check has latched: the loop refused to
// execute further events and Run/RunUntil returned early. It stays true
// until SetStopCheck is called again.
func (l *Loop) Stopped() bool { return l.stopped }

// shouldStop polls the stop seam when it is due. Called between events only.
func (l *Loop) shouldStop() bool {
	if l.stopped {
		return true
	}
	if l.stopFn == nil || l.fired < l.stopAt {
		return false
	}
	l.stopAt = l.fired + l.stopEvery
	if l.stopFn() {
		l.stopped = true
	}
	return l.stopped
}

// Run executes events until none remain (or a stop check latches).
func (l *Loop) Run() {
	for !l.shouldStop() && l.Step() {
	}
}

// RunUntil executes events with time ≤ end and then sets the clock to end.
// Events scheduled after end remain pending. When a stop check latches the
// loop returns immediately with the clock left at the last executed event,
// not advanced to end.
func (l *Loop) RunUntil(end Time) {
	for {
		if l.shouldStop() {
			return
		}
		at, ok := l.peek()
		if !ok || at > end {
			break
		}
		l.Step()
	}
	if l.now < end {
		l.now = end
	}
}
