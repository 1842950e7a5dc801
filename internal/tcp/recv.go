package tcp

import (
	"github.com/rdcn-net/tdtcp/internal/packet"
)

// maxSACKBlocks returns how many SACK blocks fit next to the other options
// in the 40-byte TCP option space.
func (c *Conn) maxSACKBlocks() int {
	if c.tdEnabled {
		return 3 // 8 (padded TD_DATA_ACK) + 2 + 3*8 = 34 ≤ 40
	}
	return 4
}

// processData is the receiver side: in-order delivery, out-of-order
// buffering with SACK-range maintenance, duplicate (spurious retransmission)
// detection with D-SACK generation, and immediate ACKs. Data-center stacks
// run effectively without delayed ACKs at these rates; the paper's Linux
// receivers are in quickack mode throughout their microsecond-scale runs.
func (c *Conn) processData(s *packet.Segment) {
	h := &s.TCP
	if c.RxDataHook != nil && h.PayloadLen > 0 {
		c.RxDataHook(h)
	}
	start := packet.SeqOf(h.Seq)
	end := start.Add(h.PayloadLen)
	fin := h.Flags&packet.FlagFIN != 0
	ce := s.ECN == packet.ECNCE

	switch {
	case h.PayloadLen == 0 && !fin:
		return
	case h.PayloadLen == 0 && fin:
		end = start // FIN handled below
	}

	if h.PayloadLen > 0 {
		switch {
		case end.LEQ(c.rcvNxt):
			// Entirely old: a spurious retransmission. Report via D-SACK
			// (RFC 2883) so the sender can undo.
			c.Stats.DupSegsRcvd++
			c.dsack = packet.SeqRange{Start: start, End: end}
			c.dsackValid = true
			c.Stats.DSACKsSent++
		case start.LT(c.rcvNxt):
			// Partial overlap: trim the old part, deliver the rest.
			c.acceptRange(c.rcvNxt, end)
		default:
			if c.coveredByRanges(start, end) {
				c.Stats.DupSegsRcvd++
				c.dsack = packet.SeqRange{Start: start, End: end}
				c.dsackValid = true
				c.Stats.DSACKsSent++
			} else {
				c.acceptRange(start, end)
			}
		}
	}

	if fin && end == c.rcvNxt && len(c.ranges) == 0 {
		c.rcvNxt = c.rcvNxt.Add(1)
		if c.state == stEstablished {
			c.state = stCloseWait
		}
	}

	c.sendAck(ce && c.cfg.ECN)
}

// coveredByRanges reports whether [start,end) lies entirely inside already
// received out-of-order data.
func (c *Conn) coveredByRanges(start, end packet.Seq) bool {
	for _, r := range c.ranges {
		if start.GEQ(r.Start) && end.LEQ(r.End) {
			return true
		}
	}
	return false
}

// acceptRange folds [start,end) into the receive state, advancing rcvNxt
// and merging out-of-order ranges.
func (c *Conn) acceptRange(start, end packet.Seq) {
	if end.LEQ(start) {
		return
	}
	if start == c.rcvNxt {
		c.advanceDelivery(end)
		return
	}
	// Out of order: insert and merge.
	c.insertRange(start, end)
}

// advanceDelivery moves rcvNxt to at least end, absorbing any now-contiguous
// buffered ranges, and notifies the delivery observer.
func (c *Conn) advanceDelivery(end packet.Seq) {
	prev := c.rcvNxt
	c.rcvNxt = end
	for len(c.ranges) > 0 && c.ranges[0].Start.LEQ(c.rcvNxt) {
		if c.ranges[0].End.GT(c.rcvNxt) {
			c.rcvNxt = c.ranges[0].End
		}
		c.dropMRU(c.ranges[0].Start)
		// Pop by shifting down, not by reslicing forward: c.ranges[1:]
		// would permanently surrender a capacity slot, making every later
		// insertRange reallocate once the backing array "walks" forward.
		c.ranges = c.ranges[:copy(c.ranges, c.ranges[1:])]
	}
	c.Stats.BytesDelivered += int64(c.rcvNxt.Diff(prev))
}

// insertRange adds an out-of-order range, merging neighbours, and marks it
// most recently updated for SACK generation (RFC 2018: first block reports
// the most recently received data).
func (c *Conn) insertRange(start, end packet.Seq) {
	// Find insertion point (ranges sorted by Start, disjoint).
	i := 0
	for i < len(c.ranges) && c.ranges[i].Start.LT(start) {
		i++
	}
	c.ranges = append(c.ranges, packet.SeqRange{})
	copy(c.ranges[i+1:], c.ranges[i:])
	c.ranges[i] = packet.SeqRange{Start: start, End: end}
	// Merge left.
	if i > 0 && c.ranges[i-1].End.GEQ(c.ranges[i].Start) {
		if c.ranges[i].End.GT(c.ranges[i-1].End) {
			c.ranges[i-1].End = c.ranges[i].End
		}
		c.dropMRU(c.ranges[i].Start)
		c.ranges = append(c.ranges[:i], c.ranges[i+1:]...)
		i--
	}
	// Merge right while overlapping.
	for i+1 < len(c.ranges) && c.ranges[i].End.GEQ(c.ranges[i+1].Start) {
		if c.ranges[i+1].End.GT(c.ranges[i].End) {
			c.ranges[i].End = c.ranges[i+1].End
		}
		c.dropMRU(c.ranges[i+1].Start)
		c.ranges = append(c.ranges[:i+1], c.ranges[i+2:]...)
	}
	c.touchMRU(c.ranges[i].Start)
}

// maxMRU bounds the recency list feeding SACK generation; RFC 2018 reporting
// never needs more than the handful of most recently updated ranges.
const maxMRU = 8

// touchMRU moves (or inserts) a range start key to the front of the recency
// list, shifting in place within the preallocated backing array.
//
// Hot path: runs once per out-of-order segment.
func (c *Conn) touchMRU(start packet.Seq) {
	c.dropMRU(start)
	if len(c.mruBlock) < maxMRU {
		c.mruBlock = c.mruBlock[:len(c.mruBlock)+1]
	}
	copy(c.mruBlock[1:], c.mruBlock)
	c.mruBlock[0] = start
}

func (c *Conn) dropMRU(start packet.Seq) {
	for i, v := range c.mruBlock {
		if v == start {
			c.mruBlock = append(c.mruBlock[:i], c.mruBlock[i+1:]...)
			return
		}
	}
}

// fillSACK populates h.SACK: a pending D-SACK block first, then buffered
// ranges in most-recently-updated order.
func (c *Conn) fillSACK(h *packet.TCPHeader) {
	max := c.maxSACKBlocks()
	h.SACK = h.SACK[:0]
	if c.dsackValid {
		h.SACK = append(h.SACK, c.dsack.Block())
		c.dsackValid = false
	}
	for _, start := range c.mruBlock {
		if len(h.SACK) >= max {
			return
		}
		for _, r := range c.ranges {
			if r.Start == start {
				h.SACK = append(h.SACK, r.Block())
				break
			}
		}
	}
}

// sendAck emits an immediate pure ACK reflecting the current receive state.
func (c *Conn) sendAck(ece bool) {
	s := c.newSegment(packet.FlagACK)
	s.TCP.Seq = c.sndNxt.Uint32()
	if ece {
		s.TCP.Flags |= packet.FlagECE
	}
	c.fillSACK(&s.TCP)
	c.attachTDOption(s, false)
	c.Stats.SegsSent++
	c.Out(s)
}

// Ranges exposes the receiver's out-of-order ranges (tests).
func (c *Conn) Ranges() []packet.SeqRange { return c.ranges }
