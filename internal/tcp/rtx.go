package tcp

import (
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// TxSeg is one MSS-sized entry of the retransmission queue, the analogue of
// a Linux skb with its TCP control block. Each segment carries the TDN tag
// of its most recent transmission (§3.1: "TDTCP tags each packet ... and
// keeps track of it throughout the lifetime of the packet").
type TxSeg struct {
	Seq packet.Seq
	Len int

	TDN         uint8
	SentAt      sim.Time // most recent (re)transmission
	FirstSentAt sim.Time

	Sacked      bool
	Lost        bool
	Retrans     bool // retransmitted and still outstanding
	EverRetrans bool // Karn's rule: never RTT-sample retransmitted segments
	Retransmits int

	fin bool // the FIN's one sequence number: resent as a FIN, never as data
}

// End returns the sequence number just past this segment.
func (s *TxSeg) End() packet.Seq { return s.Seq.Add(s.Len) }

// rtxQueue is the send-side retransmission queue: segments ordered by
// sequence number, with an amortized-O(1) head pop as cumulative ACKs
// advance.
type rtxQueue struct {
	segs []*TxSeg
	head int
}

func (q *rtxQueue) len() int { return len(q.segs) - q.head }

func (q *rtxQueue) empty() bool { return q.len() == 0 }

// push appends a newly sent segment (sequence numbers must be increasing).
func (q *rtxQueue) push(s *TxSeg) { q.segs = append(q.segs, s) }

// at returns the i-th outstanding segment (0 = oldest).
func (q *rtxQueue) at(i int) *TxSeg { return q.segs[q.head+i] }

// headSeg returns the oldest outstanding segment, or nil.
func (q *rtxQueue) headSeg() *TxSeg {
	if q.empty() {
		return nil
	}
	return q.segs[q.head]
}

// tailSeg returns the newest outstanding segment, or nil.
func (q *rtxQueue) tailSeg() *TxSeg {
	if q.empty() {
		return nil
	}
	return q.segs[len(q.segs)-1]
}

// popAcked removes segments fully covered by cumulative ACK upTo, invoking
// fn on each before removal.
func (q *rtxQueue) popAcked(upTo packet.Seq, fn func(*TxSeg)) {
	for !q.empty() {
		s := q.segs[q.head]
		if s.End().GT(upTo) {
			break
		}
		fn(s)
		q.segs[q.head] = nil
		q.head++
	}
	// Compact once the popped prefix is at least half the array: one pointer
	// moved per pop, amortised, whatever the floor. The floor spares short
	// queues the call and is low so that the array follows the flight, not
	// the flow: at 256 a flow that never had ten segments in flight still
	// grew its array, which is the pool's afterwards, from 64 entries to 512.
	if q.head > 32 && q.head*2 >= len(q.segs) {
		q.segs = append(q.segs[:0], q.segs[q.head:]...)
		q.head = 0
	}
}

// forEach iterates outstanding segments in sequence order; fn returning
// false stops the walk.
func (q *rtxQueue) forEach(fn func(*TxSeg) bool) {
	for i := q.head; i < len(q.segs); i++ {
		if !fn(q.segs[i]) {
			return
		}
	}
}

// forRange iterates outstanding segments whose Seq lies in [start, end), in
// sequence order, locating the first by binary search (the queue is always
// Seq-sorted: segments are pushed in send order and never reordered). fn
// returning false stops the walk. Sequence-space comparisons are safe as long
// as the outstanding window is below 2^31 bytes, the usual TCP constraint.
//
// Hot path: runs once per SACK block per ACK.
func (q *rtxQueue) forRange(start, end packet.Seq, fn func(*TxSeg) bool) {
	lo, hi := q.head, len(q.segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.segs[mid].Seq.LT(start) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(q.segs); i++ {
		s := q.segs[i]
		if s.Seq.GEQ(end) {
			return
		}
		if !fn(s) {
			return
		}
	}
}
