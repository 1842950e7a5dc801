package sim

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/rdcn-net/tdtcp/internal/trace"
)

func TestLoopOrdering(t *testing.T) {
	l := NewLoop(1)
	var order []int
	l.At(30, func() { order = append(order, 3) })
	l.At(10, func() { order = append(order, 1) })
	l.At(20, func() { order = append(order, 2) })
	l.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if l.Now() != 30 {
		t.Fatalf("clock = %v, want 30", l.Now())
	}
}

func TestLoopSameInstantFIFO(t *testing.T) {
	l := NewLoop(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		l.At(5, func() { order = append(order, i) })
	}
	l.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO at %d: %v", i, order[:i+1])
		}
	}
}

func TestLoopNestedScheduling(t *testing.T) {
	l := NewLoop(1)
	var hits int
	l.At(10, func() {
		l.After(5, func() { hits++ })
		l.After(0, func() { hits++ })
	})
	l.Run()
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if l.Now() != 15 {
		t.Fatalf("clock = %v, want 15", l.Now())
	}
}

func TestTimerStop(t *testing.T) {
	l := NewLoop(1)
	fired := false
	tm := l.At(10, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	l.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	l := NewLoop(1)
	tm := l.At(10, func() {})
	l.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
	if tm.Active() {
		t.Fatal("fired timer should not be active")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	l := NewLoop(1)
	l.At(10, func() {})
	l.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	l.At(5, func() {})
}

func TestRunUntil(t *testing.T) {
	l := NewLoop(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		l.At(at, func() { fired = append(fired, at) })
	}
	l.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if l.Now() != 25 {
		t.Fatalf("clock = %v, want 25", l.Now())
	}
	l.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all four", fired)
	}
	if l.Now() != 100 {
		t.Fatalf("clock = %v, want 100", l.Now())
	}
}

func TestRunUntilSkipsStopped(t *testing.T) {
	l := NewLoop(1)
	tm := l.At(10, func() { t.Fatal("stopped timer fired") })
	tm.Stop()
	l.RunUntil(50)
	if l.Now() != 50 {
		t.Fatalf("clock = %v, want 50", l.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		l := NewLoop(42)
		var out []int64
		var tick func()
		tick = func() {
			out = append(out, int64(l.Now()), l.Rand().Int63n(1000))
			if len(out) < 200 {
				l.After(Dur(1+l.Rand().Int63n(50)), tick)
			}
		}
		l.After(0, tick)
		l.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTransmitTime(t *testing.T) {
	cases := []struct {
		rate  Rate
		bytes int
		want  Dur
	}{
		{10 * Gbps, 1250, 1 * Microsecond}, // 10Kb at 10Gbps = 1us
		{100 * Gbps, 12500, 1 * Microsecond},
		{1 * Gbps, 125, 1 * Microsecond},
		{10 * Gbps, 9000, Dur(7200)}, // jumbo frame: 72000 bits / 10G = 7.2us? no: 7200ns
		{0, 1000, 0},
		{10 * Gbps, 0, 0},
	}
	for _, c := range cases {
		if got := c.rate.TransmitTime(c.bytes); got != c.want {
			t.Errorf("TransmitTime(%v, %d) = %v, want %v", c.rate, c.bytes, got, c.want)
		}
	}
}

func TestBytesIn(t *testing.T) {
	if got := (10 * Gbps).BytesIn(100 * Microsecond); got != 125000 {
		t.Fatalf("BytesIn = %d, want 125000 (10Gbps * 100us)", got)
	}
	if got := (10 * Gbps).BytesIn(-1); got != 0 {
		t.Fatalf("BytesIn negative duration = %d, want 0", got)
	}
}

// Property: TransmitTime is additive-monotone — more bytes never take less
// time, and the time for a+b bytes is at least the time for a plus for b
// minus rounding of one nanosecond each.
func TestTransmitTimeMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		r := 10 * Gbps
		ta := r.TransmitTime(int(a))
		tb := r.TransmitTime(int(b))
		tab := r.TransmitTime(int(a) + int(b))
		if tab < ta || tab < tb {
			return false
		}
		return tab >= ta+tb-2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: BytesIn and TransmitTime are approximate inverses.
func TestRateRoundTrip(t *testing.T) {
	f := func(kb uint16) bool {
		bytes := int(kb)*10 + 64
		r := 40 * Gbps
		d := r.TransmitTime(bytes)
		back := r.BytesIn(d)
		diff := back - int64(bytes)
		return diff >= -8 && diff <= 8 // at most one rounding quantum of 5 bytes/ns
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRateString(t *testing.T) {
	if s := (10 * Gbps).String(); s != "10Gbps" {
		t.Errorf("String = %q", s)
	}
	if s := (500 * Mbps).String(); s != "500Mbps" {
		t.Errorf("String = %q", s)
	}
}

func TestTimeHelpers(t *testing.T) {
	ts := Time(1500)
	if ts.Add(500) != 2000 {
		t.Fatal("Add")
	}
	if Time(2000).Sub(ts) != 500 {
		t.Fatal("Sub")
	}
	if (100 * Microsecond).Microseconds() != 100 {
		t.Fatal("Dur.Microseconds")
	}
	if Time(100*Microsecond).Microseconds() != 100 {
		t.Fatal("Time.Microseconds")
	}
}

// TestStopRemovesAtOnce checks that a stopped timer leaves the queue at the
// Stop: Live and the heap length both drop by one, and the slot is free for
// the very next timer.
func TestStopRemovesAtOnce(t *testing.T) {
	l := NewLoop(1)
	var fired []Time
	var keep []Timer
	for i := 0; i < 10; i++ {
		keep = append(keep, l.At(Time(100+i), func() { fired = append(fired, l.Now()) }))
	}
	for n, i := range []int{4, 0, 8, 2, 6, 1} {
		if !keep[i].Stop() {
			t.Fatalf("Stop of pending timer %d reported false", i)
		}
		if live := 9 - n; l.Live() != live || len(l.events) != live {
			t.Fatalf("after %d stops: Live = %d, heap length %d, want %d", n+1, l.Live(), len(l.events), live)
		}
		checkHeap(t, l)
		if got := l.free[len(l.free)-1]; got != keep[i].slot {
			t.Fatalf("after %d stops: next free slot %d, want the stopped timer's %d", n+1, got, keep[i].slot)
		}
	}
	l.Run()
	if want := []Time{103, 105, 107, 109}; !slices.Equal(fired, want) {
		t.Fatalf("survivors fired at %v, want %v", fired, want)
	}
	if l.Live() != 0 || len(l.events) != 0 {
		t.Fatalf("after drain: Live = %d, heap length %d", l.Live(), len(l.events))
	}
}

// TestStaleTimerHandle is the generation-counter regression test: once a
// timer fires, its slab slot may be reused by a later timer, and the stale
// handle must neither report the new timer as its own nor be able to stop
// it.
func TestStaleTimerHandle(t *testing.T) {
	l := NewLoop(1)
	a := l.At(10, func() {})
	l.Run()
	if a.Active() {
		t.Fatal("fired timer reports active")
	}
	// The next timer recycles a's slot (single-slot slab).
	fired := false
	b := l.At(20, func() { fired = true })
	if a.Stop() {
		t.Fatal("stale handle stopped a recycled timer")
	}
	if a.Active() {
		t.Fatal("stale handle reports the recycled slot as its own")
	}
	if !b.Active() {
		t.Fatal("fresh timer should be active")
	}
	l.Run()
	if !fired {
		t.Fatal("recycled timer did not fire")
	}

	// Same for a stopped timer: its slot is recycled at the Stop, and the
	// stale handle stays inert against the timer that reuses it.
	var old []Timer
	for i := 0; i < 8; i++ {
		old = append(old, l.At(l.Now()+Time(100+i), func() {}))
	}
	for i := 0; i < 5; i++ {
		old[i].Stop()
	}
	refill := make([]Timer, 5)
	for i := range refill {
		refill[i] = l.At(l.Now()+Time(200+i), func() {})
	}
	for i := 0; i < 5; i++ {
		if refill[i].slot != old[4-i].slot {
			t.Fatalf("refill %d took slot %d, want the stopped timer's %d", i, refill[i].slot, old[4-i].slot)
		}
		if old[i].Stop() || old[i].Active() {
			t.Fatalf("stale handle %d still bites after its slot was recycled", i)
		}
	}
	for i, tm := range refill {
		if !tm.Active() {
			t.Fatalf("refill timer %d not active", i)
		}
	}
	l.Run()
}

// TestSameInstantAfterRemovals checks the (at, seq) ordering survives
// removals from the middle of the heap: same-instant events still fire in
// scheduling order.
func TestSameInstantAfterRemovals(t *testing.T) {
	l := NewLoop(1)
	var order []int
	var cancel []Timer
	for i := 0; i < 32; i++ {
		i := i
		cancel = append(cancel, l.At(50, func() { order = append(order, i) }))
	}
	// Cancel all odd timers, from the middle of the heap outwards.
	for i := 15; i >= 1; i -= 2 {
		cancel[i].Stop()
		cancel[32-i].Stop()
		checkHeap(t, l)
	}
	l.Run()
	if len(order) != 16 {
		t.Fatalf("fired %d events, want 16", len(order))
	}
	for j, v := range order {
		if v != 2*j {
			t.Fatalf("order[%d] = %d, want %d (FIFO broken by removal)", j, v, 2*j)
		}
	}
}

func TestLoopTracerEmitsFireEvents(t *testing.T) {
	l := NewLoop(1)
	// A nil tracer must be safe (the default); then attach a flight-only
	// tracer and count fire events.
	l.SetTracer(nil)
	l.After(1, func() {})
	l.Run()

	// Payload: the number of events still to fire after this one, and the
	// fired count. A stopped timer is not among them.
	flight := trace.NewFlight(8, trace.CatSim)
	l.SetTracer((*trace.Tracer)(nil).WithFlight(flight))
	l.After(1, func() {})
	l.After(2, func() {}).Stop()
	l.After(3, func() { l.After(1, func() {}) })
	l.After(4, func() {})
	l.Run()
	want := []struct {
		ts    int64
		depth float64
		fired float64
	}{{2, 2, 2}, {4, 1, 3}, {5, 1, 4}, {5, 0, 5}}
	evs := flight.Events()
	if len(evs) != len(want) {
		t.Fatalf("fire events = %d, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if ev.Cat != "sim" || ev.Name != "fire" || ev.TS != want[i].ts || ev.A != want[i].depth || ev.B != want[i].fired {
			t.Fatalf("event %d = %+v, want fire at %d with payload (%v, %v)", i, ev, want[i].ts, want[i].depth, want[i].fired)
		}
	}
}

// chainLoop builds a loop with a self-rescheduling event chain so Run would
// execute exactly n events, recording each firing's (index, time).
func chainLoop(n int) (*Loop, *[]Time) {
	l := NewLoop(1)
	fired := &[]Time{}
	var step func()
	step = func() {
		*fired = append(*fired, l.Now())
		if len(*fired) < n {
			l.After(Dur(1+l.Rand().Intn(3)), step)
		}
	}
	l.After(1, step)
	return l, fired
}

func TestStopCheckLatches(t *testing.T) {
	l, fired := chainLoop(100)
	polls := 0
	l.SetStopCheck(10, func() bool { polls++; return polls >= 2 })
	l.Run()
	if !l.Stopped() {
		t.Fatal("loop should report Stopped after the check returned true")
	}
	// Polled at fired=10 (false) and fired=20 (true): exactly 20 events ran.
	if len(*fired) != 20 {
		t.Fatalf("executed %d events, want 20", len(*fired))
	}
	// A latched stop refuses further work without re-polling.
	before := polls
	l.Run()
	if len(*fired) != 20 || polls != before {
		t.Fatalf("latched loop ran again: %d events, %d polls", len(*fired), polls)
	}
	// Clearing the seam resumes.
	l.SetStopCheck(0, nil)
	if l.Stopped() {
		t.Fatal("nil stop check should clear the latch")
	}
	l.Run()
	if len(*fired) != 100 {
		t.Fatalf("resumed run executed %d events, want 100", len(*fired))
	}
}

// TestStopCheckPrefixDeterminism is the seam's core contract: a stopped run's
// executed-event sequence is a byte-identical prefix of the unstopped run's.
func TestStopCheckPrefixDeterminism(t *testing.T) {
	full, fullFired := chainLoop(200)
	full.Run()

	part, partFired := chainLoop(200)
	part.SetStopCheck(7, func() bool { return len(*partFired) >= 63 })
	part.Run()
	if !part.Stopped() {
		t.Fatal("partial run should have stopped")
	}
	if len(*partFired) >= len(*fullFired) {
		t.Fatalf("partial run executed %d of %d events — not a strict prefix", len(*partFired), len(*fullFired))
	}
	for i, ts := range *partFired {
		if (*fullFired)[i] != ts {
			t.Fatalf("event %d fired at %v in the stopped run, %v in the full run", i, ts, (*fullFired)[i])
		}
	}
	if part.Now() != (*partFired)[len(*partFired)-1] {
		t.Fatalf("stopped clock = %v, want last executed event time %v", part.Now(), (*partFired)[len(*partFired)-1])
	}
}

func TestStopCheckRunUntilDoesNotAdvanceClock(t *testing.T) {
	l, fired := chainLoop(100)
	l.SetStopCheck(10, func() bool { return true })
	l.RunUntil(1_000_000)
	if !l.Stopped() {
		t.Fatal("RunUntil should honor the stop check")
	}
	if len(*fired) != 10 {
		t.Fatalf("executed %d events, want 10", len(*fired))
	}
	if l.Now() == 1_000_000 {
		t.Fatal("stopped RunUntil must not advance the clock to end")
	}
}

func TestStopCheckNeverPolledBeforeCadence(t *testing.T) {
	l, _ := chainLoop(5)
	polled := false
	l.SetStopCheck(1000, func() bool { polled = true; return true })
	l.Run()
	if polled {
		t.Fatal("stop check polled before 1000 events fired")
	}
	if l.Stopped() {
		t.Fatal("loop stopped without the check returning true")
	}
}
