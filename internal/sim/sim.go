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
// once their event fires or its cancellation is compacted away, and each
// recycling bumps the generation, so a stale handle held across a firing can
// never observe — let alone stop — an unrelated later timer.
type Timer struct {
	l    *Loop
	at   Time
	slot int32
	gen  uint32
}

// Stop cancels the timer. It reports whether the call prevented the timer
// from firing. Stopping is lazy: the slot is marked dead and the queue entry
// stays until it reaches the head or a compaction sweep removes it, so Stop
// is O(1) amortized.
func (t Timer) Stop() bool {
	l := t.l
	if l == nil || int(t.slot) >= len(l.slots) {
		return false
	}
	s := &l.slots[t.slot]
	if s.gen != t.gen || s.stopped {
		return false
	}
	s.stopped = true
	s.fn = nil
	l.nstopped++
	// Compact once cancelled timers outnumber live ones: each sweep clears
	// the counter, so the cost is O(1) amortized per Stop.
	if l.nstopped*2 > len(l.events) {
		l.compact()
	}
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	l := t.l
	if l == nil || int(t.slot) >= len(l.slots) {
		return false
	}
	s := &l.slots[t.slot]
	return s.gen == t.gen && !s.stopped
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

// slot is one timer slab cell. gen counts recyclings; stopped marks a
// lazily-cancelled entry still sitting in the queue.
type slot struct {
	fn      func()
	gen     uint32
	stopped bool
}

// Loop is a discrete-event simulation loop. The zero value is not usable;
// construct with NewLoop.
type Loop struct {
	now      Time
	events   []event // 4-ary min-heap ordered by (at, seq)
	slots    []slot  // timer slab; events reference it by index
	free     []int32 // recycled slab slots
	nstopped int     // stopped entries still in events
	seq      uint64
	rng      *rand.Rand
	fired    uint64
	tracer   *trace.Tracer

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
	return &Loop{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Rand returns the loop's deterministic random source.
func (l *Loop) Rand() *rand.Rand { return l.rng }

// SetTracer attaches a structured event tracer. With the CatSim category
// enabled the loop emits a "fire" event (payload: pending-queue depth) for
// every executed event — cheap but voluminous; leave CatSim masked off
// unless debugging scheduler behaviour.
func (l *Loop) SetTracer(t *trace.Tracer) { l.tracer = t }

// Tracer returns the attached tracer (nil when tracing is disabled).
func (l *Loop) Tracer() *trace.Tracer { return l.tracer }

// Pending returns the number of scheduled events still in the queue. The
// count includes stopped-but-uncompacted timers (a stopped timer stays
// queued until its firing time passes or a compaction sweep runs), so it is
// a capacity signal, not an exact live count; use Live for the exact number
// of events that will fire.
func (l *Loop) Pending() int { return len(l.events) }

// Live returns the number of scheduled events that are still going to fire.
// It is O(1): the loop counts lazy-cancelled entries as they are stopped.
func (l *Loop) Live() int { return len(l.events) - l.nstopped }

// Fired returns the total number of events executed so far.
func (l *Loop) Fired() uint64 { return l.fired }

// less orders queue entries by (time, sequence). The sequence tie-break
// makes same-instant events fire in scheduling order, which keeps runs
// deterministic regardless of heap internals.
func (a event) less(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores heap order after appending the entry at index i.
//
//lint:hotpath runs on every event insertion
func (l *Loop) siftUp(i int) {
	h := l.events
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// siftDown restores heap order below index i.
//
//lint:hotpath runs on every event pop
func (l *Loop) siftDown(i int) {
	h := l.events
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		best := c
		for j := c + 1; j < end; j++ {
			if h[j].less(h[best]) {
				best = j
			}
		}
		if !h[best].less(e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}

// popHead removes the root entry. The caller has already read it.
//
//lint:hotpath runs once per fired event
func (l *Loop) popHead() {
	h := l.events
	n := len(h) - 1
	h[0] = h[n]
	l.events = h[:n]
	if n > 0 {
		l.siftDown(0)
	}
}

// allocSlot takes a slab cell from the free list (or grows the slab) and
// installs fn in it. Slab growth amortizes through append; the steady state
// recycles cells without touching the allocator.
//
//lint:hotpath runs on every timer arm
func (l *Loop) allocSlot(fn func()) int32 {
	if n := len(l.free); n > 0 {
		i := l.free[n-1]
		l.free = l.free[:n-1]
		s := &l.slots[i]
		s.fn = fn
		s.stopped = false
		return i
	}
	l.slots = append(l.slots, slot{fn: fn, gen: 1})
	return int32(len(l.slots) - 1)
}

// freeSlot recycles a slab cell: the callback is dropped (so the loop never
// retains a dead closure) and the generation advances, invalidating every
// outstanding handle to the old timer.
//
//lint:hotpath runs once per fired or stopped event
func (l *Loop) freeSlot(i int32) {
	s := &l.slots[i]
	s.fn = nil
	s.stopped = false
	s.gen++
	l.free = append(l.free, i)
}

// compact sweeps stopped entries out of the queue in one pass and restores
// the heap property bottom-up. Relative order of the surviving entries is
// irrelevant — the heap is rebuilt — and (at, seq) ordering makes the result
// deterministic.
func (l *Loop) compact() {
	kept := l.events[:0]
	for _, e := range l.events {
		if l.slots[e.slot].stopped {
			l.freeSlot(e.slot)
			continue
		}
		kept = append(kept, e)
	}
	l.events = kept
	l.nstopped = 0
	for i := (len(kept) - 2) >> 2; i >= 0; i-- {
		l.siftDown(i)
	}
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
//lint:hotpath every timer arm goes through here
func (l *Loop) At(at Time, fn func()) Timer {
	if at < l.now {
		l.schedulePastPanic(at)
	}
	si := l.allocSlot(fn)
	l.events = append(l.events, event{at: at, seq: l.seq, slot: si})
	l.seq++
	l.siftUp(len(l.events) - 1)
	return Timer{l: l, at: at, slot: si, gen: l.slots[si].gen}
}

// After schedules fn to run d after the current time. Negative d is clamped
// to zero.
//
//lint:hotpath the common timer-arm entry point
func (l *Loop) After(d Dur, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return l.At(l.now.Add(d), fn)
}

// peek discards stopped entries from the head of the queue and reports the
// firing time of the earliest live event. It is the single place stopped
// timers are skipped, shared by Step and RunUntil.
//
//lint:hotpath runs before every event fire
func (l *Loop) peek() (Time, bool) {
	for len(l.events) > 0 {
		e := l.events[0]
		if !l.slots[e.slot].stopped {
			return e.at, true
		}
		l.nstopped--
		l.freeSlot(e.slot)
		l.popHead()
	}
	return 0, false
}

// Step executes the next pending event, advancing the clock to its time.
// It reports false when no events remain.
//
//lint:hotpath the event loop's inner iteration
func (l *Loop) Step() bool {
	if _, ok := l.peek(); !ok {
		return false
	}
	e := l.events[0]
	fn := l.slots[e.slot].fn
	// Recycle the slot before running the callback: the firing timer is
	// spent, and anything fn schedules may immediately reuse the cell (under
	// a fresh generation, so the fired handle stays inert).
	l.freeSlot(e.slot)
	l.popHead()
	l.now = e.at
	l.fired++
	if l.tracer.Enabled(trace.CatSim) {
		l.tracer.Emit(trace.CatSim, int64(l.now), "fire", -1, -1,
			float64(len(l.events)), float64(l.fired), "")
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
