// Package trace is the unified observability layer of the repository: a
// deterministic structured event tracer plus a metrics registry, wired
// through every layer of the stack (simulation loop, TCP data path,
// congestion control, TDTCP policy, VOQs, RDCN control plane).
//
// The paper's entire evaluation methodology rests on instrumentation —
// kernel tracepoints, tcpdump captures, a modified Wireshark dissector —
// and this package plays that role for the reproduction: every event
// carries a virtual timestamp and flow/TDN labels, streams to an io.Writer
// as JSONL (one JSON object per line) and into the always-on flight
// recorder's fixed-size ring (flight.go), and converts to Chrome
// trace-viewer JSON (chrome://tracing, Perfetto) for visual inspection of a
// whole RDCN week.
//
// # Determinism
//
// Timestamps are virtual (sim.Time nanoseconds), the encoder never walks a
// Go map, and floats render via strconv with the shortest round-trippable
// form, so two runs with the same seed produce byte-identical traces.
//
// # Overhead when disabled
//
// A disabled tracer is a nil *Tracer. Every method is nil-receiver safe:
// Enabled on a nil tracer is a single nil-check-and-branch, so
// instrumentation left in the hot path costs one predictable branch per
// site. Call sites that must build arguments (strings, conversions) gate on
// Enabled first.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Category is a bitmask selecting which layers of the stack emit events.
type Category uint32

// Event categories, one per instrumented layer.
const (
	// CatSim traces simulator event firing and pending-queue depth.
	CatSim Category = 1 << iota
	// CatTCP traces the TCP data path: CA-state transitions, retransmits,
	// RTO/TLP fires, SACK/D-SACK arrivals, reordering episodes.
	CatTCP
	// CatCC traces per-variant congestion-control decisions (cwnd moves).
	CatCC
	// CatTDN traces TDTCP policy activity: per-TDN state freeze/resume and
	// change-pointer moves.
	CatTDN
	// CatVOQ traces ToR virtual output queues: enqueue, dequeue, drop,
	// ECN mark, resize.
	CatVOQ
	// CatRDCN traces the RDCN control plane: day/night/week transitions and
	// TDN-change notifications.
	CatRDCN
	// CatFault traces injected faults (internal/fault) and runtime invariant
	// violations (internal/invariant): every dropped/duplicated notification,
	// every dropped/corrupted/delayed frame, circuit flaps, schedule drift,
	// resize failures, deadman engagements.
	CatFault

	numCategories = 7
)

// CatAll enables every category.
const CatAll Category = 1<<numCategories - 1

var catNames = [numCategories]string{"sim", "tcp", "cc", "tdn", "voq", "rdcn", "fault"}

// String renders a single-bit category as its short name; multi-bit masks
// render as a comma-separated list.
func (c Category) String() string {
	var parts []string
	for i := 0; i < numCategories; i++ {
		if c&(1<<i) != 0 {
			parts = append(parts, catNames[i])
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseCategories parses a comma-separated category list ("tcp,cc,voq").
// "all" selects every category; the empty string selects none.
func ParseCategories(s string) (Category, error) {
	var mask Category
	if s == "" {
		return 0, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "all" {
			mask = CatAll
			continue
		}
		found := false
		for i, name := range catNames {
			if part == name {
				mask |= 1 << i
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("trace: unknown category %q (have %s, or 'all')", part, CatAll)
		}
	}
	return mask, nil
}

// Event is one structured trace record. The numeric payloads A and B carry
// per-name semantics (documented in the event taxonomy in DESIGN.md): for
// "cwnd" decisions A is the congestion window and B the slow-start
// threshold, for "voq_*" events A is the post-operation occupancy, and so
// on. Flow is -1 for network-level events; TDN is -1 when no TDN applies.
//
// Span records additionally carry Ph ("B" begin / "E" end), the span id,
// and for begins the parent span id (0 = root). Point events leave all
// three zero, so their encoding is unchanged.
type Event struct {
	TS     int64   `json:"ts"` // virtual time, nanoseconds since sim start
	Cat    string  `json:"cat"`
	Name   string  `json:"name"`
	Flow   int     `json:"flow"`
	TDN    int     `json:"tdn"`
	A      float64 `json:"a"`
	B      float64 `json:"b"`
	S      string  `json:"s,omitempty"`
	Ph     string  `json:"ph,omitempty"`     // "B" or "E" for span records
	Span   int64   `json:"span,omitempty"`   // span id, unique within a run
	Parent int64   `json:"parent,omitempty"` // parent span id on "B" records
}

// ParseLine decodes one JSONL trace line into an Event.
func ParseLine(line []byte, ev *Event) error {
	ev.S, ev.Ph, ev.Span, ev.Parent = "", "", 0, 0
	return json.Unmarshal(line, ev)
}

// SpanID names one causal span within a run. Ids are allocated by BeginSpan
// from a per-tracer counter, so runs with the same seed and the same tracer
// configuration allocate identical ids. The zero SpanID means "no span":
// EndSpan(0) is a no-op and parent 0 marks a root span.
type SpanID int64

// maxSpanDepth bounds the implicit parent stack (PushParent/PopParent).
// The deepest chain in the tree today is epoch -> notify -> cwnd_swap.
const maxSpanDepth = 8

// Tracer collects events. Construct with New (streaming JSONL), or attach a
// flight recorder to a nil tracer with WithFlight for in-memory recording
// only; a nil *Tracer is the disabled tracer and every method on it is safe
// to call. Tracer is safe for concurrent use: the simulation itself is
// single-goroutine, but analysis tools and tests may emit from several
// goroutines at once.
type Tracer struct {
	mask   Category
	flight *Flight // always-on ring, bypasses mask; see flight.go

	// spanSeq is the span id allocator; atomic so concurrent emitters stay
	// race-free. The sim itself is single-goroutine, so allocation order
	// (and therefore every id) is deterministic for a given seed.
	spanSeq atomic.Int64

	// parents is the implicit parent-span stack for cross-layer causality:
	// a caller that is about to hand control to a lower layer pushes its
	// span so the callee can parent onto it without widening every
	// signature in between. Fixed-size: depth saturates, never allocates.
	parents  [maxSpanDepth]SpanID
	nparents int

	mu    sync.Mutex
	w     *bufio.Writer
	buf   []byte // encode scratch, reused under mu
	count uint64
	err   error
}

// New returns a tracer streaming JSONL to w, emitting only categories in
// mask. Writes are buffered; call Flush before reading the destination.
func New(w io.Writer, mask Category) *Tracer {
	return &Tracer{mask: mask, w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
}

// Enabled reports whether events in category c are being recorded — by the
// mask (JSONL output) or by an attached flight recorder. This is the
// hot-path gate: on a nil (disabled) tracer it is a nil check and a branch,
// nothing more.
func (t *Tracer) Enabled(c Category) bool {
	if t == nil {
		return false
	}
	if t.mask&c != 0 {
		return true
	}
	return t.flight != nil && t.flight.mask&c != 0
}

// WithFlight attaches flight recorder f and returns the resulting tracer:
// the receiver itself when non-nil (mutated in place), or a new flight-only
// tracer when the receiver is nil. Events in f's category mask are recorded
// into the ring regardless of the tracer's own mask, so the flight recorder
// stays on even when JSONL tracing is off. Attach before the run starts;
// attaching concurrently with Emit is a race.
func (t *Tracer) WithFlight(f *Flight) *Tracer {
	if f == nil {
		return t
	}
	if t == nil {
		return &Tracer{flight: f}
	}
	t.flight = f
	return t
}

// FlightRecorder returns the attached flight recorder, if any.
func (t *Tracer) FlightRecorder() *Flight {
	if t == nil {
		return nil
	}
	return t.flight
}

// Count returns the number of events accepted so far.
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Err returns the first write error encountered, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Emit records one event. Events in categories outside the tracer's mask
// (and all events on a nil tracer) are discarded. ts is virtual time in
// nanoseconds; flow/tdn label the event (-1 = not applicable); a and b are
// per-name numeric payloads and s an optional string payload.
func (t *Tracer) Emit(c Category, ts int64, name string, flow, tdn int, a, b float64, s string) {
	if t == nil {
		return
	}
	if f := t.flight; f != nil && f.mask&c != 0 {
		f.record(c, ts, name, flow, tdn, 0, 0, 0, a, b, s)
	}
	if t.mask&c == 0 {
		return
	}
	t.record(c, ts, name, flow, tdn, "", 0, 0, a, b, s)
}

// record is the masked-output half of Emit: JSONL, under the lock.
func (t *Tracer) record(c Category, ts int64, name string, flow, tdn int, ph string, span, parent SpanID, a, b float64, s string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	if t.w == nil {
		return // mask set but no destination: count only
	}
	t.buf = appendEvent(t.buf[:0], c, ts, name, flow, tdn, ph, int64(span), int64(parent), a, b, s)
	if _, err := t.w.Write(t.buf); err != nil && t.err == nil {
		t.err = err
	}
}

// BeginSpan opens a causal span and returns its id, or 0 when category c is
// recorded nowhere (nil tracer, or outside both the mask and the flight
// recorder's mask). parent links the span into a causal chain (0 = root);
// use Parent() to pick up the innermost implicit parent. Pass the returned
// id to EndSpan on every path out of the spanned region.
func (t *Tracer) BeginSpan(c Category, ts int64, name string, flow, tdn int, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	toFlight := t.flight != nil && t.flight.mask&c != 0
	toMask := t.mask&c != 0
	if !toFlight && !toMask {
		return 0
	}
	id := SpanID(t.spanSeq.Add(1))
	if toFlight {
		t.flight.record(c, ts, name, flow, tdn, 'B', int64(id), int64(parent), 0, 0, "")
	}
	if toMask {
		t.record(c, ts, name, flow, tdn, "B", id, parent, 0, 0, "")
	}
	return id
}

// EndSpan closes span id opened by BeginSpan with the same category and
// name. a and b are per-name numeric payloads summarizing the span (for a
// "flow" span, bytes delivered; for an "epoch" span, frames carried).
// EndSpan(…, 0, …) is a no-op, so call sites never need to check whether
// the begin was recorded.
func (t *Tracer) EndSpan(c Category, ts int64, name string, flow, tdn int, id SpanID, a, b float64) {
	if t == nil || id == 0 {
		return
	}
	if f := t.flight; f != nil && f.mask&c != 0 {
		f.record(c, ts, name, flow, tdn, 'E', int64(id), 0, a, b, "")
	}
	if t.mask&c != 0 {
		t.record(c, ts, name, flow, tdn, "E", id, 0, a, b, "")
	}
}

// PushParent makes id the innermost implicit parent span. Callers pair it
// with PopParent around handing control to a lower layer, so the callee's
// BeginSpan(…, tr.Parent()) links across signatures that do not carry span
// ids. The stack is fixed-size and saturates silently beyond maxSpanDepth.
// Like the simulation itself, the parent stack is single-goroutine state.
func (t *Tracer) PushParent(id SpanID) {
	if t == nil {
		return
	}
	if t.nparents < maxSpanDepth {
		t.parents[t.nparents] = id
	}
	t.nparents++
}

// PopParent undoes the matching PushParent.
func (t *Tracer) PopParent() {
	if t == nil || t.nparents == 0 {
		return
	}
	t.nparents--
}

// Parent returns the innermost implicit parent span, or 0 when none is set.
func (t *Tracer) Parent() SpanID {
	if t == nil || t.nparents == 0 || t.nparents > maxSpanDepth {
		return 0
	}
	return t.parents[t.nparents-1]
}

// appendEvent encodes one event as a JSONL line. Hand-rolled (no maps, no
// reflection) so output is deterministic and allocation-free after warmup.
// Non-finite floats serialize as -1: JSON has no Inf/NaN, and the only
// non-finite value in practice is the "no threshold yet" +Inf ssthresh.
// Span fields (ph/span/parent) are emitted only when ph is set, so point
// events encode byte-identically to the pre-span format.
func appendEvent(b []byte, c Category, ts int64, name string, flow, tdn int, ph string, span, parent int64, a, bb float64, s string) []byte {
	b = append(b, `{"ts":`...)
	b = strconv.AppendInt(b, ts, 10)
	b = append(b, `,"cat":"`...)
	b = append(b, c.String()...)
	b = append(b, `","name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"flow":`...)
	b = strconv.AppendInt(b, int64(flow), 10)
	b = append(b, `,"tdn":`...)
	b = strconv.AppendInt(b, int64(tdn), 10)
	b = append(b, `,"a":`...)
	b = appendFloat(b, a)
	b = append(b, `,"b":`...)
	b = appendFloat(b, bb)
	if s != "" {
		b = append(b, `,"s":`...)
		b = strconv.AppendQuote(b, s)
	}
	if ph != "" {
		b = append(b, `,"ph":`...)
		b = strconv.AppendQuote(b, ph)
		b = append(b, `,"span":`...)
		b = strconv.AppendInt(b, span, 10)
		if parent != 0 {
			b = append(b, `,"parent":`...)
			b = strconv.AppendInt(b, parent, 10)
		}
	}
	b = append(b, "}\n"...)
	return b
}

func appendFloat(b []byte, v float64) []byte {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return append(b, "-1"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Flush drains buffered output to the underlying writer.
func (t *Tracer) Flush() error {
	if t == nil || t.w == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}
