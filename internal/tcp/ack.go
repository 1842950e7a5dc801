package tcp

import (
	"github.com/rdcn-net/tdtcp/internal/cc"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// Input feeds a parsed segment from the network into the connection.
func (c *Conn) Input(s *packet.Segment) {
	c.Stats.SegsRcvd++
	h := &s.TCP
	switch c.state {
	case stListen:
		if h.Flags&packet.FlagSYN != 0 && h.Flags&packet.FlagACK == 0 {
			c.handleSYN(s)
		}
		return
	case stSynSent:
		if h.Flags&packet.FlagSYN != 0 && h.Flags&packet.FlagACK != 0 {
			c.handleSYNACK(s)
		}
		return
	case stSynRcvd:
		if h.Flags&packet.FlagACK != 0 && packet.SeqOf(h.Ack) == c.iss.Add(1) {
			c.state = stEstablished
			c.completeHandshakeAck(s)
		}
		return
	case stClosed, stDone, stReleased:
		return
	default:
		// stEstablished, stCloseWait, stFinWait: the data path below.
	}

	// Established (or closing) path.
	if h.Flags&packet.FlagSYN != 0 && h.Flags&packet.FlagACK != 0 {
		// Duplicate SYN-ACK: our handshake ACK was lost; re-ack.
		c.sendAck(false)
		return
	}
	if h.Flags&packet.FlagACK != 0 {
		c.processAck(s)
	}
	if h.PayloadLen > 0 || h.Flags&packet.FlagFIN != 0 {
		c.processData(s)
	}
}

func (c *Conn) handleSYN(s *packet.Segment) {
	h := &s.TCP
	c.RemoteAddr, c.RemotePort = s.Src, h.SrcPort
	c.irs = packet.SeqOf(h.Seq)
	c.rcv.Next = c.irs.Add(1)
	c.peerTD = h.TDCapable
	c.peerTDNs = int(h.NumTDNs)
	c.tdEnabled = c.negotiateTD()
	c.iss = packet.SeqOf(c.Loop.Rand().Uint32())
	c.sndUna = c.iss
	c.sndNxt = c.iss
	c.highestSacked = c.iss
	c.peerWnd = h.Window
	c.state = stSynRcvd
	c.sendSYN(true)
}

func (c *Conn) handleSYNACK(s *packet.Segment) {
	h := &s.TCP
	if packet.SeqOf(h.Ack) != c.iss.Add(1) {
		return
	}
	c.irs = packet.SeqOf(h.Seq)
	c.rcv.Next = c.irs.Add(1)
	c.peerTD = h.TDCapable
	c.peerTDNs = int(h.NumTDNs)
	c.tdEnabled = c.negotiateTD()
	c.peerWnd = h.Window
	c.completeHandshakeAck(s)
	c.state = stEstablished
	c.sendAck(false)
	c.trySend()
}

// negotiateTD applies §4.2: both ends must support TDTCP and agree on the
// number of TDNs.
func (c *Conn) negotiateTD() bool {
	return c.peerTD && c.cfg.NumTDNs > 1 && c.peerTDNs == c.cfg.NumTDNs
}

// completeHandshakeAck retires the SYN segment (tracked under TDN 0 per
// Appendix A.2) and takes the handshake RTT sample.
func (c *Conn) completeHandshakeAck(s *packet.Segment) {
	now := c.Loop.Now()
	c.rtx.popAcked(c.iss.Add(1), func(seg *TxSeg) {
		st := c.states[seg.TDN]
		st.PacketsOut--
		if !seg.EverRetrans {
			st.ObserveRTT(now.Sub(seg.SentAt), c.cfg.MinRTO, c.cfg.MaxRTO)
		}
		c.pool.putTxSeg(seg)
	})
	c.sndUna = c.iss.Add(1)
	c.backoff = 0
	c.armTimer()
}

// ackTDNOf extracts the ACK TDN tag from a segment (NoTDN when absent).
func ackTDNOf(h *packet.TCPHeader) uint8 {
	if h.TDPresent && h.TDFlags&packet.TDFlagACK != 0 {
		return h.AckTDN
	}
	return packet.NoTDN
}

// tdnLabel converts a wire TDN tag to a trace label (-1 when untagged).
func tdnLabel(tdn uint8) int {
	if tdn == packet.NoTDN {
		return -1
	}
	return int(tdn)
}

// processAck is the sender-side ACK machine: SACK/D-SACK processing,
// cumulative advance, RTT sampling, loss detection, congestion-state
// transitions, and window growth.
func (c *Conn) processAck(s *packet.Segment) {
	h := &s.TCP
	now := c.Loop.Now()
	ack := packet.SeqOf(h.Ack)
	if ack.GT(c.sndNxt) {
		return // acks data never sent
	}
	c.peerWnd = h.Window
	if c.totalPacketsOut() == 0 {
		// §4.3 "all TDNs": no data outstanding on any TDN means the ACK
		// is stale; only window updates are taken.
		return
	}
	ackTDN := ackTDNOf(h)

	delivered := c.delivered // newly delivered per TDN state (scratch)
	for i := range delivered {
		delivered[i] = 0
	}
	newlySacked := 0
	// rttCand holds a copy of the freshest newly-delivered,
	// never-retransmitted segment (a value, not a pointer: the segment may be
	// recycled by popAcked before the sample is consumed).
	var rttCand TxSeg
	rttCandOK := false

	// --- SACK / D-SACK ---------------------------------------------------
	dsacked := false
	for i, blk := range h.SACK {
		if blk.Start == blk.End {
			continue
		}
		start, end := packet.SeqOf(blk.Start), packet.SeqOf(blk.End)
		isDSACK := i == 0 && (end.LEQ(ack) ||
			(len(h.SACK) > 1 && start.GEQ(packet.SeqOf(h.SACK[1].Start)) && end.LEQ(packet.SeqOf(h.SACK[1].End))))
		if isDSACK {
			dsacked = true
			continue
		}
		c.rtx.forRange(start, end, func(seg *TxSeg) bool {
			if seg.End().GT(end) {
				return true // partially covered tail segment
			}
			if !seg.Sacked {
				st := c.states[seg.TDN]
				seg.Sacked = true
				st.SackedOut++
				if seg.Lost {
					seg.Lost = false
					st.LostOut--
				}
				if seg.Retrans {
					seg.Retrans = false
					st.RetransOut--
				}
				newlySacked++
				delivered[seg.TDN]++
				c.rackAdvance(seg)
				c.highestSacked = c.highestSacked.Max(seg.End())
				if !seg.EverRetrans && (!rttCandOK || seg.SentAt > rttCand.SentAt) {
					rttCand = *seg // sample at SACK time (Linux sack_rtt_us)
					rttCandOK = true
				}
			}
			return true
		})
	}
	if newlySacked > 0 {
		c.emit("sack", tdnLabel(ackTDN), float64(newlySacked), float64(c.RelSeq(c.highestSacked)), "")
	}
	if dsacked {
		c.emit("dsack", tdnLabel(ackTDN), float64(c.RelSeq(ack)), 0, "")
		c.onDSACK(now)
	}

	// --- cumulative advance ----------------------------------------------
	advanced := ack.GT(c.sndUna)
	if advanced {
		c.rtx.popAcked(ack, func(seg *TxSeg) {
			st := c.states[seg.TDN]
			st.PacketsOut--
			if seg.Sacked {
				// Delivered (and RTT-sampled) when it was SACKed; its ACK
				// time now reflects hole repair, not path latency.
				st.SackedOut--
			} else {
				delivered[seg.TDN]++
				c.rackAdvance(seg)
				if !seg.EverRetrans && (!rttCandOK || seg.SentAt > rttCand.SentAt) {
					rttCand = *seg
					rttCandOK = true
				}
			}
			if seg.Lost {
				st.LostOut--
			}
			if seg.Retrans {
				st.RetransOut--
			}
			c.Stats.BytesAcked += int64(seg.Len)
			c.pool.putTxSeg(seg)
		})
		c.sndUna = ack
		c.backoff = 0
		c.tlpInFlight = false
		if c.state == stFinWait && c.sndUna == c.sndNxt && c.rtx.empty() {
			c.state = stDone
			// The trySend below returns at its state guard before its closing
			// armTimer, so the emptied queue stops the timer here.
			c.armTimer()
			if c.OnDone != nil {
				c.OnDone(now)
			}
		}
	} else if ack == c.sndUna && h.PayloadLen == 0 && newlySacked == 0 {
		// Classic duplicate ACK.
		if head := c.rtx.headSeg(); head != nil {
			st := c.states[head.TDN]
			st.DupAcks++
			if int(st.DupAcks) >= dupThresh && !head.Sacked && !head.Lost {
				if c.policy.FilterLoss(head, ackTDN) {
					c.Stats.FilteredMarks++
					c.emit("loss_filtered", int(head.TDN), float64(c.RelSeq(head.Seq)), float64(tdnLabel(ackTDN)), "")
				} else {
					c.markLost(head, now)
				}
			}
		}
	}

	// --- RTT sampling (Karn + §4.4 TDN matching) ---------------------------
	if rttCandOK {
		if target, ok := c.policy.RTTTarget(rttCand.TDN, ackTDN); ok {
			sample := now.Sub(rttCand.SentAt)
			c.states[target].ObserveRTT(sample, c.cfg.MinRTO, c.cfg.MaxRTO)
			if target < len(c.RTTHists) {
				c.RTTHists[target].Record(int64(sample))
			}
			c.Stats.RTTSamples++
		} else {
			c.Stats.RTTSamplesDropped++
			c.emit("rtt_drop", int(rttCand.TDN), float64(now.Sub(rttCand.SentAt)), float64(tdnLabel(ackTDN)), "")
		}
	}

	// --- reordering instrumentation (Fig. 10) ------------------------------
	// A reordering event opens when an ACK first exposes a sequence hole
	// below the highest SACKed sequence; the affected packets are the hole's
	// occupants (the segments that would be spuriously retransmitted if the
	// window permits). The episode closes when the hole is repaired.
	if newlySacked > 0 || c.gapOpen {
		gap := 0
		c.rtx.forEach(func(seg *TxSeg) bool {
			if seg.Seq.GEQ(c.highestSacked) {
				return false
			}
			if !seg.Sacked && !seg.Lost {
				gap++
			}
			return true
		})
		switch {
		case gap > 0 && newlySacked > 0:
			if !c.gapOpen {
				c.gapOpen = true
				c.gapMax = 0
				c.Stats.ReorderEvents++
				c.emit("reorder", tdnLabel(ackTDN), float64(gap), float64(c.Stats.ReorderEvents), "")
			}
			if gap > c.gapMax {
				c.Stats.ReorderPackets += uint64(gap - c.gapMax)
				c.gapMax = gap
			}
		case gap == 0:
			c.gapOpen = false
		}
	}

	// --- loss detection -----------------------------------------------------
	c.detectLosses(ackTDN, now)

	// --- congestion-state transitions --------------------------------------
	for _, st := range c.states {
		from := st.CA
		switch st.CA {
		case CARecovery, CALoss:
			if advanced && c.sndUna.GEQ(st.RecoveryPoint) {
				st.CA = CAOpen
				st.DupAcks = 0
				st.undoPossible = false
				st.CC.OnRecoveryExit(now)
				c.endRecoverySpan(st, false)
			}
		case CAOpen:
			if st.SackedOut > 0 {
				st.CA = CADisorder
			}
		case CADisorder:
			if st.SackedOut == 0 && advanced {
				st.CA = CAOpen
				st.DupAcks = 0
			}
		}
		c.emitCA(st, from)
	}

	// --- PRR delivery credit -------------------------------------------------
	for tdn, n := range delivered {
		if n > 0 {
			c.states[tdn].prrDelivered += n
			c.states[tdn].updatePRR(n)
		}
	}

	// --- window growth ------------------------------------------------------
	ece := h.Flags&packet.FlagECE != 0
	for tdn, n := range delivered {
		if n == 0 {
			continue
		}
		st := c.states[tdn]
		if st.CA == CARecovery {
			continue // PRR governs fast recovery; growth resumes on exit
		}
		ev := cc.AckEvent{
			Now:      now,
			Acked:    n,
			InFlight: st.InFlight(),
			SRTT:     st.SRTT,
		}
		if ece {
			ev.ECEMarked = n
		}
		if rttCandOK && rttCand.TDN == uint8(tdn) {
			ev.RTT = now.Sub(rttCand.SentAt)
		}
		st.CC.OnAck(ev)
	}

	c.trySend()
}

// markLost marks a segment lost and drives its TDN's state machine into
// Recovery (Figure 4: only the TDN owning the loss enters Recovery).
func (c *Conn) markLost(seg *TxSeg, now sim.Time) {
	if seg.Sacked || seg.Lost {
		return
	}
	st := c.states[seg.TDN]
	seg.Lost = true
	st.LostOut++
	if seg.Retrans {
		seg.Retrans = false
		st.RetransOut--
	}
	c.Stats.LossMarks++
	c.emit("loss_mark", int(seg.TDN), float64(c.RelSeq(seg.Seq)), float64(st.LostOut), "")
	if st.CA == CAOpen || st.CA == CADisorder {
		from := st.CA
		st.CA = CARecovery
		st.RecoveryPoint = c.sndNxt
		st.undoPossible = true
		st.undoRetrans = 0
		st.enterRecoveryPRR()
		st.CC.OnEnterRecovery(now, st.InFlight())
		c.beginRecoverySpan(st)
		c.emitCA(st, from)
	}
}

// detectLosses applies the SACK-count (dupthresh) and RACK time rules to
// every un-SACKed segment below the highest SACKed sequence.
//
// The dupthresh rule is subject to the policy's cross-TDN reordering filter
// (§3.4): a hole whose segments rode a different TDN than the exposing ACK
// is most likely cross-TDN reordering, not loss. The RACK rule stays active
// even across TDNs — §3.4 explicitly leaves true cross-TDN tail losses to
// RACK-TLP — but with a reorder window widened to cover the cross-TDN ACK
// delay (½RTT_own + ½RTT_slowest) instead of the same-path srtt/4.
func (c *Conn) detectLosses(ackTDN uint8, now sim.Time) {
	if c.highestSacked.LEQ(c.sndUna) {
		return
	}
	thresh := int32(dupThresh * c.cfg.MSS)
	activeTDN := uint8(c.policy.Active())
	var slowest *PathState
	for _, st := range c.states {
		if st.Samples > 0 && (slowest == nil || st.SRTT > slowest.SRTT) {
			slowest = st
		}
	}
	c.rtx.forEach(func(seg *TxSeg) bool {
		if seg.Seq.GEQ(c.highestSacked) {
			return false
		}
		if seg.Sacked || seg.Lost {
			return true
		}
		// The dupthresh rule applies only to first transmissions: a segment
		// whose retransmission is still in flight is reclaimed by the RACK
		// timer below (on the retransmission's own send time) or by the
		// RTO, never by sequence counting — re-marking it on every ACK
		// would retransmit it once per round trip forever.
		// Diff (not raw subtraction): a segment straddling highestSacked
		// would wrap the unsigned difference to a huge value and be marked
		// lost spuriously; the signed distance is negative there instead.
		if !seg.Retrans && c.highestSacked.Diff(seg.End()) >= thresh {
			if !c.policy.FilterLoss(seg, ackTDN) {
				c.markLost(seg, now)
				return true
			}
			c.Stats.FilteredMarks++
			c.emit("loss_filtered", int(seg.TDN), float64(c.RelSeq(seg.Seq)), float64(tdnLabel(ackTDN)), "")
		}
		if c.rackXmit > 0 {
			own := c.states[seg.TDN]
			var reoWnd sim.Dur
			if seg.TDN == activeTDN || slowest == nil {
				reoWnd = own.SRTT / 4
			} else {
				reoWnd = own.SRTT/2 + slowest.SRTT/2 + 4*slowest.RTTVar
			}
			if seg.SentAt.Add(reoWnd) < c.rackXmit {
				c.markLost(seg, now)
			}
		}
		return true
	})
}

// rackAdvance records the transmit time of the most recently sent segment
// known to be delivered (RFC 8985 §6.2), skipping retransmitted segments.
func (c *Conn) rackAdvance(seg *TxSeg) {
	if seg.EverRetrans {
		return
	}
	if seg.SentAt > c.rackXmit || (seg.SentAt == c.rackXmit && seg.End().GT(c.rackEndSeq)) {
		c.rackXmit = seg.SentAt
		c.rackEndSeq = seg.End()
	}
}

// onDSACK processes a duplicate-SACK report: one retransmission is proven
// spurious; when every retransmission of a recovery episode is proven
// spurious, the congestion-window reduction is undone (Linux's D-SACK undo).
func (c *Conn) onDSACK(now sim.Time) {
	for _, st := range c.states {
		if st.undoRetrans > 0 {
			st.undoRetrans--
			// Undo only when every retransmission of the episode has been
			// proven spurious AND nothing is still presumed lost: a comb of
			// genuine holes interleaved with spurious marks must not bounce
			// the window back up mid-repair.
			if st.undoRetrans == 0 && st.undoPossible && st.CA == CARecovery && st.LostOut == 0 {
				st.CC.Undo()
				st.CA = CAOpen
				st.DupAcks = 0
				st.undoPossible = false
				c.Stats.Undos++
				c.endRecoverySpan(st, true)
			}
			return
		}
	}
}
