package sim

import (
	"cmp"
	"slices"
	"testing"
)

// refEntry is one pending event of the reference queue.
type refEntry struct {
	at  Time
	seq uint64
	id  int
}

// refLoop is the naive reference the event heap is checked against: a slice
// kept sorted by (at, seq) with its own sequence counter. Scheduling inserts
// in order, stopping removes by search, and the head is the next event due.
type refLoop struct {
	now  Time
	seq  uint64
	q    []refEntry
	live []bool // by event id
}

func (r *refLoop) at(at Time, id int) {
	e := refEntry{at: at, seq: r.seq, id: id}
	i, _ := slices.BinarySearchFunc(r.q, e, func(x, y refEntry) int {
		return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.seq, y.seq))
	})
	r.q = slices.Insert(r.q, i, e)
	r.seq++
	r.live = append(r.live, true)
}

func (r *refLoop) pop() refEntry {
	e := r.q[0]
	r.q = r.q[1:]
	r.live[e.id] = false
	r.now = e.at
	return e
}

func (r *refLoop) stop(id int) bool {
	if !r.live[id] {
		return false
	}
	r.live[id] = false
	i := slices.IndexFunc(r.q, func(e refEntry) bool { return e.id == id })
	r.q = slices.Delete(r.q, i, i+1)
	return true
}

// loopFuzz drives a Loop and the reference in lockstep from one script. Every
// event the loop fires must be the reference's head; its callback then runs
// the plan decoded when it was scheduled, applying each action to both sides.
type loopFuzz struct {
	t       *testing.T
	l       *Loop
	ref     refLoop
	script  []byte
	pos     int
	handles []Timer
	plans   []eventPlan
	fired   int
}

// eventPlan is what one event's callback does when it fires: schedule up to
// three children at small offsets, and stop one handle before or after.
type eventPlan struct {
	deltas    []Dur
	stop      int // handle index to stop, or -1
	stopFirst bool
}

// maxFuzzEvents bounds the events callbacks create, so chains of children
// always terminate; maxFuzzScript bounds the top-level operations.
const (
	maxFuzzEvents = 256
	maxFuzzScript = 256
)

func (f *loopFuzz) next() byte {
	if f.pos >= len(f.script) {
		return 0
	}
	b := f.script[f.pos]
	f.pos++
	return b
}

// delta is a small offset, so same-instant ties are common.
func (f *loopFuzz) delta() Dur { return Dur(f.next() & 3) }

func (f *loopFuzz) schedule(d Dur) {
	id := len(f.handles)
	at := f.l.Now().Add(d)
	p := eventPlan{stop: -1}
	if id < maxFuzzEvents {
		b := f.next()
		for k := 0; k < int(b&3); k++ {
			p.deltas = append(p.deltas, f.delta())
		}
		if b&4 != 0 {
			p.stop = int(f.next())
			p.stopFirst = b&8 != 0
		}
	}
	f.plans = append(f.plans, p)
	f.handles = append(f.handles, f.l.At(at, func() { f.fire(id) }))
	f.ref.at(at, id)
	if h := f.handles[id]; !h.Active() || h.When() != at {
		f.t.Fatalf("event %d: fresh handle active=%v when=%v, want active at %v", id, h.Active(), h.When(), at)
	}
	checkHeap(f.t, f.l)
}

// stop stops handle k mod the handles issued so far (live, fired or already
// stopped) on both sides and compares the answers.
func (f *loopFuzz) stop(k int) {
	if len(f.handles) == 0 {
		return
	}
	k %= len(f.handles)
	got, want := f.handles[k].Stop(), f.ref.stop(k)
	if got != want {
		f.t.Fatalf("Stop(event %d) = %v, reference %v", k, got, want)
	}
	if f.handles[k].Active() {
		f.t.Fatalf("event %d active after Stop", k)
	}
	checkHeap(f.t, f.l)
}

func (f *loopFuzz) fire(id int) {
	if len(f.ref.q) == 0 {
		f.t.Fatalf("loop fired event %d at %v; reference queue is empty", id, f.l.Now())
	}
	head := f.ref.q[0]
	if head.id != id || head.at != f.l.Now() {
		f.t.Fatalf("loop fired event %d at %v; reference expects event %d at %v", id, f.l.Now(), head.id, head.at)
	}
	f.ref.pop()
	f.fired++
	if f.handles[id].Active() || f.handles[id].Stop() {
		f.t.Fatalf("event %d: handle still live inside its own callback", id)
	}
	p := f.plans[id]
	if p.stop >= 0 && p.stopFirst {
		f.stop(p.stop)
	}
	for _, d := range p.deltas {
		f.schedule(d)
	}
	if p.stop >= 0 && !p.stopFirst {
		f.stop(p.stop)
	}
}

// check compares everything observable between two top-level operations:
// the clock, Live, and every handle's Active.
func (f *loopFuzz) check(op string) {
	f.t.Helper()
	checkHeap(f.t, f.l)
	if f.l.Now() != f.ref.now {
		f.t.Fatalf("after %s: clock %v, reference %v", op, f.l.Now(), f.ref.now)
	}
	if got, want := f.l.Live(), len(f.ref.q); got != want {
		f.t.Fatalf("after %s: Live = %d, reference %d", op, got, want)
	}
	for k, h := range f.handles {
		if got, want := h.Active(), f.ref.live[k]; got != want {
			f.t.Fatalf("after %s: event %d Active = %v, reference %v", op, k, got, want)
		}
	}
	if f.l.Fired() != uint64(f.fired) {
		f.t.Fatalf("after %s: Fired = %d, callbacks ran %d", op, f.l.Fired(), f.fired)
	}
}

// runUntil runs both sides to end: the loop fires (and the reference checks)
// every event due by end, and nothing due by end may remain.
func (f *loopFuzz) runUntil(end Time) {
	f.l.RunUntil(end)
	if len(f.ref.q) > 0 && f.ref.q[0].at <= end {
		f.t.Fatalf("RunUntil(%v) left event %d due at %v", end, f.ref.q[0].id, f.ref.q[0].at)
	}
	if f.ref.now < end {
		f.ref.now = end
	}
}

// FuzzLoopMatchesReference is the event heap's differential oracle. The
// input decodes to a script of At at now + δ with δ < 4 (so same-instant ties
// are common), Stop of any handle ever issued, single Steps and partial
// RunUntils; fired callbacks schedule and stop in turn. A sorted-slice
// reference predicts the firing order, Live after every operation and every
// handle's Stop and Active answers, and checkHeap asserts the heap's own
// invariants (order, and each slot's index of its entry) after every change.
func FuzzLoopMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 0, 5, 1, 0, 2, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 5, 3, 3, 3})
	f.Add([]byte{0, 7, 3, 9, 0, 1, 14, 0, 2, 4, 0, 0, 15, 2, 1, 6, 4, 2, 12, 3, 0, 5, 1, 1, 4})
	f.Add([]byte{0, 6, 200, 0, 11, 1, 0, 3, 0, 0, 1, 3, 2, 0, 1, 0, 4, 1, 5, 4, 7, 3, 4})
	f.Add(slices.Repeat([]byte{0, 13, 1, 2, 3, 2, 1, 4, 3, 0, 1, 3, 3}, 8))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > maxFuzzScript {
			script = script[:maxFuzzScript]
		}
		fz := &loopFuzz{t: t, l: NewLoop(1), script: script}
		for fz.pos < len(fz.script) {
			switch fz.next() % 5 {
			case 0:
				fz.schedule(fz.delta())
				fz.check("At")
			case 1:
				fz.stop(int(fz.next()))
				fz.check("Stop")
			case 2:
				fz.runUntil(fz.l.Now().Add(Dur(fz.next() & 7)))
				fz.check("RunUntil")
			case 3:
				want := len(fz.ref.q) > 0
				if got := fz.l.Step(); got != want {
					t.Fatalf("Step = %v, reference had events pending: %v", got, want)
				}
				fz.check("Step")
			default:
				if _, ok := fz.l.peek(); ok != (len(fz.ref.q) > 0) {
					t.Fatalf("peek ok = %v with %d events pending in the reference", ok, len(fz.ref.q))
				}
				fz.check("peek")
			}
		}
		fz.l.Run()
		fz.check("Run")
		if len(fz.ref.q) != 0 {
			t.Fatalf("Run left %d events in the reference", len(fz.ref.q))
		}
	})
}

// checkHeap asserts the queue is a 4-ary min-heap under (at, seq) and that
// every live entry's slot points back at it. A vacant root's slot is free.
func checkHeap(t *testing.T, l *Loop) {
	t.Helper()
	h := l.events
	for i := 1; i < len(h); i++ {
		if p := (i - 1) >> 2; less(h[i], h[p]) == 1 {
			t.Fatalf("heap order broken: entry %d (%v, %d) below parent %d (%v, %d)", i, h[i].at, h[i].seq, p, h[p].at, h[p].seq)
		}
	}
	for i, e := range h {
		if i == 0 && l.vacant {
			continue
		}
		if s := l.slots[e.slot]; int(s.pos) != i || s.fn == nil {
			t.Fatalf("entry %d (%v, %d): slot %d has pos %d, fn set %v", i, e.at, e.seq, e.slot, s.pos, s.fn != nil)
		}
	}
}
