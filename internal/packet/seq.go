package packet

import "fmt"

// Seq is a point in a wrapping 32-bit sequence space: a TCP sequence or
// acknowledgment number, an MPTCP data sequence number (DSN), or a
// TDN-change notification epoch.
//
// Raw ordered comparisons (<, >, <=, >=) are wrong near the wrap:
// 0x00000010 comes *after* 0xFFFFFFF0, not before. Seq is a struct so that
// such a comparison does not compile; ordering goes through the RFC 1982
// methods below, and == and != stay legal. The methods follow the usual TCP
// convention (Linux's before()/after()): a precedes b when the signed
// distance a-b is negative, which is correct whenever the two values are
// within 2^31 of each other — true by construction for TCP windows and for
// epoch counters that advance by one per schedule transition.
//
// The wire stays uint32. TCPHeader.Seq/Ack/DSN, SACKBlock and
// TDNNotification.Epoch are what the codec reads and writes, and the
// transport converts once at each crossing: SeqOf where a header field is
// read, Uint32 where one is written.
type Seq struct{ v uint32 }

// SeqOf returns the sequence-space point with wire value v.
func SeqOf(v uint32) Seq { return Seq{v} }

// Uint32 returns the wire value of s.
func (s Seq) Uint32() uint32 { return s.v }

// LT reports whether s precedes b in sequence space.
func (s Seq) LT(b Seq) bool { return int32(s.v-b.v) < 0 }

// LEQ reports whether s precedes or equals b in sequence space.
func (s Seq) LEQ(b Seq) bool { return int32(s.v-b.v) <= 0 }

// GT reports whether s follows b in sequence space.
func (s Seq) GT(b Seq) bool { return int32(s.v-b.v) > 0 }

// GEQ reports whether s follows or equals b in sequence space.
func (s Seq) GEQ(b Seq) bool { return int32(s.v-b.v) >= 0 }

// Max returns the later of s and b in sequence space.
func (s Seq) Max(b Seq) Seq {
	if s.GT(b) {
		return s
	}
	return b
}

// Add returns the point n positions after s (before it for negative n),
// wrapping at 2^32.
func (s Seq) Add(n int) Seq { return Seq{s.v + uint32(n)} }

// Diff returns the signed distance s-b in sequence space: positive when s
// follows b, negative when it precedes it. uint32(s.Diff(b)) is the unsigned
// distance, for offsets that may reach 2^31.
func (s Seq) Diff(b Seq) int32 { return int32(s.v - b.v) }

// SeqRange is a half-open range [Start, End) of sequence space: a reassembly
// queue entry or a D-SACK report. SACKBlock is its wire form.
type SeqRange struct{ Start, End Seq }

// Block returns r as a wire SACK block.
func (r SeqRange) Block() SACKBlock { return SACKBlock{Start: r.Start.v, End: r.End.v} }

// EpochGate drops stale and duplicate TDN-change notifications (§3.2): the
// fabric numbers its transitions, and an endpoint acts on a notification
// only when its epoch follows the last one acted on in serial-number order
// (RFC 1982), so the gate survives the counter wrapping past MaxUint32.
// Epoch 0 passes without moving the gate (tests and direct drivers that keep
// no epochs; the network's counter skips it). The zero value has seen no
// epoch yet, a state no sentinel epoch could mark near the wrap.
type EpochGate struct {
	last Seq
	seen bool
}

// EpochVerdict is what EpochGate.Pass makes of a notification's epoch.
type EpochVerdict uint8

const (
	EpochNew   EpochVerdict = iota // act on it
	EpochDup                       // the epoch last acted on, again
	EpochStale                     // precedes the epoch last acted on
)

// Pass judges epoch and, when it is new and not 0, moves the gate to it.
func (g *EpochGate) Pass(epoch uint32) EpochVerdict {
	e := SeqOf(epoch)
	switch {
	case epoch == 0:
	case g.seen && e == g.last:
		return EpochDup
	case g.seen && e.LT(g.last):
		return EpochStale
	default:
		g.last, g.seen = e, true
	}
	return EpochNew
}

// Last returns the epoch the gate last moved to (0 before the first).
func (g *EpochGate) Last() uint32 { return g.last.v }

// maxRecent bounds the recency order: RFC 2018 reporting never needs more
// than the few most recently updated ranges.
const maxRecent = 8

// Reassembly is a receive queue over sequence space: a subflow's by
// sequence number, MPTCP's by DSN (§2.2). Next is the first point not yet
// delivered in order; beyond it the queue holds the points that arrived out
// of order as sorted, disjoint, non-adjacent ranges, and the starts of the
// most recently updated ones, most recent first, in the order RFC 2018
// reports SACK blocks. Neither Add nor Blocks allocates once the range slice
// has grown to the queue's widest hole pattern; Reset keeps it.
type Reassembly struct {
	Next    Seq
	nrecent uint8
	ranges  []SeqRange
	recent  [maxRecent]Seq
}

// Reset empties the queue and starts it at next, keeping its storage.
func (r *Reassembly) Reset(next Seq) {
	*r = Reassembly{Next: next, ranges: r.ranges[:0]}
}

// Add folds the arrival of [start, end) into the queue. It returns how far
// Next advanced and how many of the points had already arrived: those before
// Next, or all of them when one range already holds [start, end).
func (r *Reassembly) Add(start, end Seq) (advanced, dup int) {
	n := int(end.Diff(start))
	switch {
	case n <= 0:
		return 0, 0
	case end.LEQ(r.Next):
		return 0, n
	case start.LT(r.Next):
		dup = int(r.Next.Diff(start))
	case r.Covers(start, end):
		return 0, n
	case start != r.Next:
		r.insert(start, end)
		return 0, 0
	}
	prev := r.Next
	r.Next = end
	for len(r.ranges) > 0 && r.ranges[0].Start.LEQ(r.Next) {
		r.Next = r.Next.Max(r.ranges[0].End)
		r.forget(r.ranges[0].Start)
		// Pop by shifting down, not by reslicing forward: r.ranges[1:]
		// would surrender a capacity slot for good, and every later insert
		// would reallocate once the backing array walked forward.
		r.ranges = r.ranges[:copy(r.ranges, r.ranges[1:])]
	}
	return int(r.Next.Diff(prev)), dup
}

// Covers reports whether one range already holds [start, end).
func (r *Reassembly) Covers(start, end Seq) bool {
	for _, g := range r.ranges {
		if start.GEQ(g.Start) && end.LEQ(g.End) {
			return true
		}
	}
	return false
}

// insert adds [start, end), beyond Next, merging it with the ranges it
// overlaps or touches, and makes the merged range the most recently updated.
func (r *Reassembly) insert(start, end Seq) {
	i := 0
	for i < len(r.ranges) && r.ranges[i].Start.LT(start) {
		i++
	}
	r.ranges = append(r.ranges, SeqRange{})
	copy(r.ranges[i+1:], r.ranges[i:])
	r.ranges[i] = SeqRange{Start: start, End: end}
	if i > 0 && r.ranges[i-1].End.GEQ(start) {
		r.ranges[i-1].End = r.ranges[i-1].End.Max(end)
		r.forget(start)
		r.ranges = append(r.ranges[:i], r.ranges[i+1:]...)
		i--
	}
	for i+1 < len(r.ranges) && r.ranges[i].End.GEQ(r.ranges[i+1].Start) {
		r.ranges[i].End = r.ranges[i].End.Max(r.ranges[i+1].End)
		r.forget(r.ranges[i+1].Start)
		r.ranges = append(r.ranges[:i+1], r.ranges[i+2:]...)
	}
	// Move (or insert) the range's start to the front of the recency order.
	r.forget(r.ranges[i].Start)
	if r.nrecent < maxRecent {
		r.nrecent++
	}
	copy(r.recent[1:r.nrecent], r.recent[:r.nrecent])
	r.recent[0] = r.ranges[i].Start
}

// forget drops start from the recency order.
func (r *Reassembly) forget(start Seq) {
	for i, s := range r.recent[:r.nrecent] {
		if s == start {
			r.nrecent--
			copy(r.recent[i:r.nrecent], r.recent[i+1:])
			return
		}
	}
}

// Ranges returns the ranges beyond Next, sorted (tests).
func (r *Reassembly) Ranges() []SeqRange { return r.ranges }

// Held returns how many points the queue holds beyond Next.
func (r *Reassembly) Held() int {
	n := 0
	for _, g := range r.ranges {
		n += int(g.End.Diff(g.Start))
	}
	return n
}

// Blocks appends the queue's ranges to dst as SACK blocks, most recently
// updated first, until dst holds max blocks or the recency order ends.
func (r *Reassembly) Blocks(dst []SACKBlock, max int) []SACKBlock {
	for _, start := range r.recent[:r.nrecent] {
		if len(dst) >= max {
			break
		}
		for _, g := range r.ranges {
			if g.Start == start {
				dst = append(dst, g.Block())
				break
			}
		}
	}
	return dst
}

// Check validates the queue's shape: every range non-empty, beyond Next,
// and sorted and disjoint from the one before it.
func (r *Reassembly) Check() error {
	for i, g := range r.ranges {
		if g.Start.GEQ(g.End) {
			return fmt.Errorf("range %d is empty [%d,%d)", i, g.Start.v, g.End.v)
		}
		if g.Start.LEQ(r.Next) {
			return fmt.Errorf("range %d starts at %d, at or below rcv_nxt %d", i, g.Start.v, r.Next.v)
		}
		if i > 0 && g.Start.LT(r.ranges[i-1].End) {
			return fmt.Errorf("ranges %d and %d overlap or are unsorted", i-1, i)
		}
	}
	return nil
}
