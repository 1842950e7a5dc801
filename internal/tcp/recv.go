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
		advanced, dup := c.rcv.Add(start, end)
		c.Stats.BytesDelivered += int64(advanced)
		if dup == h.PayloadLen {
			// All of it had arrived: a spurious retransmission. Report via
			// D-SACK (RFC 2883) so the sender can undo.
			c.Stats.DupSegsRcvd++
			c.dsack = packet.SeqRange{Start: start, End: end}
			c.dsackValid = true
			c.Stats.DSACKsSent++
		}
	}

	if fin && end == c.rcv.Next && len(c.rcv.Ranges()) == 0 {
		c.rcv.Next = c.rcv.Next.Add(1)
		if c.state == stEstablished {
			c.state = stCloseWait
		}
	}

	c.sendAck(ce && c.cfg.ECN)
}

// fillSACK populates h.SACK: a pending D-SACK block first, then buffered
// ranges in most-recently-updated order.
func (c *Conn) fillSACK(h *packet.TCPHeader) {
	h.SACK = h.SACK[:0]
	if c.dsackValid {
		h.SACK = append(h.SACK, c.dsack.Block())
		c.dsackValid = false
	}
	h.SACK = c.rcv.Blocks(h.SACK, c.maxSACKBlocks())
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
