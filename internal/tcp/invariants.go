package tcp

import "fmt"

// CheckInvariants validates the connection's internal consistency: the
// per-TDN pipe counters against a recount of the retransmission queue, the
// sender's sequence cursors against the queue's shape, the receiver's
// out-of-order ranges, the timer backoff bound, and the retransmission timer
// armed exactly while the queue is non-empty. It is the runtime
// analogue of Linux's tcp_verify_left_out: cheap enough to run after every
// simulation event during faulted runs (no allocation on a consistent
// connection of up to 32 path states: the recount tallies are on the stack),
// and it returns a descriptive error on the first violation instead of
// panicking so the invariant checker can attach trace context.
func (c *Conn) CheckInvariants() error {
	if c.state == stReleased {
		return nil // nothing left to be inconsistent
	}
	// Sender cursors.
	if c.sndUna.GT(c.sndNxt) {
		return fmt.Errorf("tcp: snd_una %d beyond snd_nxt %d", uint32(c.sndUna.Diff(c.iss)), uint32(c.sndNxt.Diff(c.iss)))
	}
	if c.backoff > 16 {
		return fmt.Errorf("tcp: rto backoff %d beyond saturation", c.backoff)
	}
	if armed := c.timer.Active(); armed != !c.rtx.empty() {
		return fmt.Errorf("tcp: retransmission timer armed=%t with %d segments outstanding", armed, c.rtx.len())
	}

	// Retransmission-queue shape and the §4.3 pipe recount.
	// One stack array, not [packet.MaxTDNs] of them: zeroing 4 kB per call
	// cost a checked run more than the four small slices it replaced.
	type pipe struct{ packets, sacked, lost, retrans int32 }
	var few [32]pipe
	recount := few[:]
	if len(c.states) > len(recount) {
		recount = make([]pipe, len(c.states))
	}
	var prev *TxSeg
	var walkErr error
	c.rtx.forEach(func(seg *TxSeg) bool {
		if seg.Len <= 0 {
			walkErr = fmt.Errorf("tcp: rtx segment %d has length %d", c.RelSeq(seg.Seq), seg.Len)
			return false
		}
		if int(seg.TDN) >= len(c.states) {
			walkErr = fmt.Errorf("tcp: rtx segment %d tagged with unknown TDN %d", c.RelSeq(seg.Seq), seg.TDN)
			return false
		}
		if prev != nil && seg.Seq.LT(prev.End()) {
			walkErr = fmt.Errorf("tcp: rtx queue out of order: %d before end of %d",
				c.RelSeq(seg.Seq), c.RelSeq(prev.Seq))
			return false
		}
		if seg.Sacked && seg.Lost {
			walkErr = fmt.Errorf("tcp: rtx segment %d both SACKed and lost", c.RelSeq(seg.Seq))
			return false
		}
		n := &recount[seg.TDN]
		n.packets++
		if seg.Sacked {
			n.sacked++
		}
		if seg.Lost {
			n.lost++
		}
		if seg.Retrans {
			n.retrans++
		}
		prev = seg
		return true
	})
	if walkErr != nil {
		return walkErr
	}
	// SACK bound: the scoreboard can never cover data the sender has not
	// offered — every SACKed byte lies inside the outstanding window
	// [snd_una, snd_nxt).
	var sackedBytes int64
	c.rtx.forEach(func(seg *TxSeg) bool {
		if seg.Sacked {
			sackedBytes += int64(seg.Len)
			if seg.Seq.LT(c.sndUna) || seg.End().GT(c.sndNxt) {
				walkErr = fmt.Errorf("tcp: SACKed segment [%d,%d) outside outstanding window [%d,%d)",
					c.RelSeq(seg.Seq), c.RelSeq(seg.End()), uint32(c.sndUna.Diff(c.iss)), uint32(c.sndNxt.Diff(c.iss)))
				return false
			}
		}
		return true
	})
	if walkErr != nil {
		return walkErr
	}
	if outstanding := int64(c.sndNxt.Diff(c.sndUna)); sackedBytes > outstanding {
		return fmt.Errorf("tcp: SACK scoreboard covers %d bytes, only %d outstanding", sackedBytes, outstanding)
	}
	if head := c.rtx.headSeg(); head != nil {
		if head.Seq.GT(c.sndUna) || head.End().LEQ(c.sndUna) {
			return fmt.Errorf("tcp: snd_una %d outside head segment [%d,%d)",
				uint32(c.sndUna.Diff(c.iss)), c.RelSeq(head.Seq)+1, c.RelSeq(head.End())+1)
		}
		if tail := c.rtx.tailSeg(); tail.End() != c.sndNxt {
			return fmt.Errorf("tcp: tail segment ends at %d, snd_nxt at %d",
				uint32(tail.End().Diff(c.iss)), uint32(c.sndNxt.Diff(c.iss)))
		}
	} else if c.sndUna != c.sndNxt {
		return fmt.Errorf("tcp: empty rtx queue with snd_una %d != snd_nxt %d",
			uint32(c.sndUna.Diff(c.iss)), uint32(c.sndNxt.Diff(c.iss)))
	}
	out := 0
	for tdn, st := range c.states {
		out += int(st.PacketsOut)
		// Before the recount, which a negative counter can never equal.
		if st.PacketsOut < 0 || st.SackedOut < 0 || st.LostOut < 0 || st.RetransOut < 0 {
			return fmt.Errorf("tcp: TDN %d negative pipe counter", tdn)
		}
		if n := recount[tdn]; st.PacketsOut != n.packets || st.SackedOut != n.sacked ||
			st.LostOut != n.lost || st.RetransOut != n.retrans {
			return fmt.Errorf("tcp: TDN %d pipe counters out/sacked/lost/retrans = %d/%d/%d/%d, recount %d/%d/%d/%d",
				tdn, st.PacketsOut, st.SackedOut, st.LostOut, st.RetransOut,
				n.packets, n.sacked, n.lost, n.retrans)
		}
	}
	// totalPacketsOut answers with the queue length instead of this sum.
	if out != c.rtx.len() {
		return fmt.Errorf("tcp: packets out over all TDNs %d, rtx queue holds %d", out, c.rtx.len())
	}

	if err := c.rcv.Check(); err != nil {
		return fmt.Errorf("tcp: receiver %w", err)
	}
	return nil
}
