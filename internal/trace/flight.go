package trace

import "io"

// Flight is the always-on flight recorder: a fixed-size ring holding the
// most recent trace events in a compact in-memory form. It is attached to a
// Tracer with WithFlight and records every event whose category is in its
// mask — even when JSONL tracing is off — so that when an invariant
// check fails, a conservation ledger does not balance, or a run panics, the
// last moments before the failure can be dumped as replayable evidence.
//
// Recording is a handful of field stores into a preallocated slot: no
// locks, no allocations, no category formatting (the Category is stored
// numerically and rendered only at dump time). That keeps the steady-state
// cost at a few nanoseconds per event, cheap enough to leave on by default
// in every run: internal/experiments' TestSteadyStateDoesNotAllocate holds
// the zero-allocation half with the recorder attached, and the benchmark's
// trace.emit_flight_ns and trace.flight_overhead_pct rows measure the rest.
//
// Like the simulation loop itself, a Flight is single-goroutine state: it
// must not be shared between concurrently-running simulations. Sweeps give
// each run its own recorder.
type Flight struct {
	mask  Category
	recs  []flightRec
	next  int
	wrap  bool
	count uint64
}

// flightRec is one compact ring slot. Name and S alias the caller's
// strings (always constants or preexisting labels at emit sites), so a
// store is pointer-sized copies, never a formatting pass.
type flightRec struct {
	ts           int64
	span, parent int64
	a, b         float64
	name, s      string
	cat          Category
	flow, tdn    int32
	ph           byte // 0 point event, 'B' span begin, 'E' span end
}

// DefaultFlightLen is the ring size runs use when none is configured.
const DefaultFlightLen = 256

// DefaultFlightCats is the category mask runs record by default: everything
// except CatSim, whose per-event "fire" records would both dominate the
// ring and put a branch-plus-store on every single simulator event, and
// CatCC, whose per-ack cwnd updates would evict the causal spans a
// DefaultFlightLen ring exists to preserve. Either is available by
// constructing an explicit NewFlight mask.
const DefaultFlightCats = CatAll &^ (CatSim | CatCC)

// NewFlight returns a flight recorder keeping the most recent n events in
// categories within mask.
func NewFlight(n int, mask Category) *Flight {
	if n < 1 {
		n = 1
	}
	return &Flight{mask: mask, recs: make([]flightRec, n)}
}

// record stores one event into the ring, overwriting the oldest.
func (f *Flight) record(c Category, ts int64, name string, flow, tdn int, ph byte, span, parent int64, a, b float64, s string) {
	r := &f.recs[f.next]
	r.ts, r.span, r.parent = ts, span, parent
	r.a, r.b = a, b
	r.name, r.s = name, s
	r.cat, r.flow, r.tdn, r.ph = c, int32(flow), int32(tdn), ph
	f.next++
	if f.next == len(f.recs) {
		f.next = 0
		f.wrap = true
	}
	f.count++
}

// Mask returns the recorder's category mask.
func (f *Flight) Mask() Category {
	if f == nil {
		return 0
	}
	return f.mask
}

// Count returns the number of events recorded so far (including those the
// ring has since overwritten).
func (f *Flight) Count() uint64 {
	if f == nil {
		return 0
	}
	return f.count
}

// Len returns the number of events currently held.
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	if f.wrap {
		return len(f.recs)
	}
	return f.next
}

// Reset empties the ring without releasing its storage, so a recorder can
// be reused across runs.
func (f *Flight) Reset() {
	if f == nil {
		return
	}
	f.next, f.wrap, f.count = 0, false, 0
}

// Events returns the held events oldest-first, converted to the exported
// Event form.
func (f *Flight) Events() []Event {
	if f == nil {
		return nil
	}
	n := f.Len()
	out := make([]Event, 0, n)
	start := 0
	if f.wrap {
		start = f.next
	}
	for i := 0; i < n; i++ {
		r := &f.recs[(start+i)%len(f.recs)]
		ph := ""
		if r.ph != 0 {
			ph = string(rune(r.ph))
		}
		out = append(out, Event{TS: r.ts, Cat: r.cat.String(), Name: r.name,
			Flow: int(r.flow), TDN: int(r.tdn), A: r.a, B: r.b, S: r.s,
			Ph: ph, Span: r.span, Parent: r.parent})
	}
	return out
}

// Tail returns the most recent n held events, oldest-first.
func (f *Flight) Tail(n int) []Event {
	evs := f.Events()
	if n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Dump writes the held events as JSONL (the Tracer streaming format) to w,
// oldest-first, so a dump replays through the same tooling as a live trace
// (tdtrace, tdprof, the Chrome exporter).
func (f *Flight) Dump(w io.Writer) error {
	if f == nil {
		return nil
	}
	var buf []byte
	n := f.Len()
	start := 0
	if f.wrap {
		start = f.next
	}
	for i := 0; i < n; i++ {
		r := &f.recs[(start+i)%len(f.recs)]
		ph := ""
		if r.ph != 0 {
			ph = string(rune(r.ph))
		}
		buf = appendEvent(buf[:0], r.cat, r.ts, r.name, int(r.flow), int(r.tdn),
			ph, r.span, r.parent, r.a, r.b, r.s)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
