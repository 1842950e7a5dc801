package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"

	"github.com/rdcn-net/tdtcp/internal/trace"
)

// diffContext is how many records are shown before and after the first
// divergent one, in each file.
const diffContext = 5

// rec is one trace record: the line as written, and what diff compares — the
// event with its span and parent ids cleared, since ids number spans in
// allocation order and say nothing about what happened.
type rec struct {
	raw string
	ev  trace.Event
}

// traceFile reads one JSONL trace an instant (a run of equal timestamps) at a
// time, remembering the last few records it handed out.
type traceFile struct {
	name string
	sc   *bufio.Scanner
	next *rec  // read ahead, nil at the end
	past []rec // up to diffContext records before the current instant
	n    int   // records handed out
	err  error
}

func openTrace(name string) (*traceFile, func() error, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, nil, err
	}
	t := &traceFile{name: name, sc: lineScanner(f)}
	t.advance()
	return t, f.Close, t.err
}

func (t *traceFile) advance() {
	t.next = nil
	for t.err == nil && t.sc.Scan() {
		if len(t.sc.Bytes()) == 0 {
			continue
		}
		r := &rec{raw: t.sc.Text()}
		if err := trace.ParseLine(t.sc.Bytes(), &r.ev); err != nil {
			t.err = fmt.Errorf("%s: record %d: %v", t.name, t.n+1, err)
			return
		}
		r.ev.Span, r.ev.Parent = 0, 0
		t.next = r
		return
	}
	if t.err == nil {
		t.err = t.sc.Err()
	}
}

// instant hands out every record of the next timestamp.
func (t *traceFile) instant() []rec {
	var g []rec
	for t.next != nil && (len(g) == 0 || t.next.ev.TS == g[0].ev.TS) {
		g = append(g, t.pop())
	}
	return g
}

// upTo hands out the next n records, whatever their timestamps.
func (t *traceFile) upTo(n int) []rec {
	var g []rec
	for t.next != nil && len(g) < n {
		g = append(g, t.pop())
	}
	return g
}

func (t *traceFile) pop() rec {
	r := *t.next
	t.n++
	t.advance()
	return r
}

// remember keeps the tail of g as context for a later instant.
func (t *traceFile) remember(g []rec) {
	t.past = append(t.past, g...)
	t.past = t.past[max(0, len(t.past)-diffContext):]
}

// unmatched returns the index of the first record of g that other, taken as a
// multiset, has no copy left for; len(g) when there is none.
func unmatched(g, other []rec) int {
	left := make(map[trace.Event]int, len(other))
	for _, r := range other {
		left[r.ev]++
	}
	for i, r := range g {
		if left[r.ev] == 0 {
			return i
		}
		left[r.ev]--
	}
	return len(g)
}

// diffTraces compares two JSONL traces record by record, ignoring span and
// parent ids and taking the records of one timestamp as a multiset. It prints
// the first divergent record with its surroundings in both files, then one
// summary line, and returns the exit code: 0 when the traces are identical or
// differ only in the order of records within equal timestamps, 1 when they
// diverge, 2 when either cannot be read.
func diffTraces(nameA, nameB string, w, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tdtrace:", err)
		return 2
	}
	a, closeA, err := openTrace(nameA)
	if err != nil {
		return fail(err)
	}
	defer closeA()
	b, closeB, err := openTrace(nameB)
	if err != nil {
		return fail(err)
	}
	defer closeB()

	permuted, firstPermuted := 0, int64(0)
	for a.next != nil || b.next != nil {
		var ga, gb []rec
		// The file whose next instant is later has no records at this one.
		if b.next == nil || (a.next != nil && a.next.ev.TS <= b.next.ev.TS) {
			ga = a.instant()
		}
		if b.next != nil && (len(ga) == 0 || b.next.ev.TS == ga[0].ev.TS) {
			gb = b.instant()
		}
		if a.err != nil || b.err != nil {
			break
		}
		// The common case first: the same records in the same order.
		same := slices.EqualFunc(ga, gb, func(x, y rec) bool { return x.ev == y.ev })
		ia, ib := len(ga), len(gb)
		if !same {
			ia, ib = unmatched(ga, gb), unmatched(gb, ga)
		}
		if ia == len(ga) && ib == len(gb) {
			if !same {
				if permuted++; permuted == 1 {
					firstPermuted = ga[0].ev.TS
				}
			}
			a.remember(ga)
			b.remember(gb)
			continue
		}
		// The divergent record is the first one the other file cannot match:
		// a's, or b's when every record a has at this instant is matched.
		var ev trace.Event
		if ia < len(ga) {
			ev = ga[ia].ev
		} else {
			ev = gb[ib].ev
		}
		posA, posB := a.n-len(ga)+ia+1, b.n-len(gb)+ib+1
		showSide(w, a, ga, ia)
		showSide(w, b, gb, ib)
		if a.err != nil || b.err != nil {
			break
		}
		fmt.Fprintf(w, "diverges at t=%d ns: flow %d, tdn %d, %s/%s (record %d of %s, %d of %s)\n",
			ev.TS, ev.Flow, ev.TDN, ev.Cat, ev.Name, posA, nameA, posB, nameB)
		return 1
	}
	if a.err != nil {
		return fail(a.err)
	}
	if b.err != nil {
		return fail(b.err)
	}
	if permuted > 0 {
		fmt.Fprintf(w, "permutation within equal timestamps only: %d records, %d instants reordered, first at t=%d ns\n", a.n, permuted, firstPermuted)
		return 0
	}
	fmt.Fprintf(w, "identical: %d records\n", a.n)
	return 0
}

// showSide prints one file's view of the divergence: the records before g[i],
// g[i] itself marked ">" (or a note that the file has nothing there), and the
// records after it.
func showSide(w io.Writer, t *traceFile, g []rec, i int) {
	fmt.Fprintf(w, "--- %s\n", t.name)
	before := slices.Concat(t.past, g[:i])
	for _, r := range before[max(0, len(before)-diffContext):] {
		fmt.Fprintf(w, "  %s\n", r.raw)
	}
	after := g[i:]
	if i == len(g) {
		fmt.Fprintln(w, "> (no such record)")
	} else {
		fmt.Fprintf(w, "> %s\n", g[i].raw)
		after = g[i+1:]
	}
	after = append(after, t.upTo(diffContext)...)
	for _, r := range after[:min(len(after), diffContext)] {
		fmt.Fprintf(w, "  %s\n", r.raw)
	}
}
