// Package tcp implements a Linux-flavoured userspace TCP data path over the
// discrete-event simulator: a unified sequence space, cumulative ACKs with
// SACK (RFC 2018) and D-SACK (RFC 2883), the Open/Disorder/Recovery/Loss
// congestion-state machine, fast retransmit, RACK-TLP time-based loss
// detection (RFC 8985), RTO estimation per RFC 6298 with Karn's rule, and
// pluggable congestion control.
//
// Path state (congestion control, RTT estimation, pipe accounting) is held
// in PathState objects managed through the Policy interface, so the TDTCP
// engine in internal/core can multiplex several states over one connection
// (§3.1, §4.3 of the paper) while single-path variants use exactly one.
package tcp

import (
	"fmt"

	"github.com/rdcn-net/tdtcp/internal/cc"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// CAState mirrors Linux's tcp_ca_state machine. TDTCP keeps one per TDN
// (Figure 4).
type CAState uint8

// Congestion-avoidance machine states.
const (
	CAOpen CAState = iota
	CADisorder
	CARecovery
	CALoss
)

func (s CAState) String() string {
	switch s {
	case CAOpen:
		return "open"
	case CADisorder:
		return "disorder"
	case CARecovery:
		return "recovery"
	case CALoss:
		return "loss"
	default:
		return fmt.Sprintf("CAState(%d)", uint8(s))
	}
}

// PathState is the per-path ("per-TDN" in TDTCP) state bundle of §3.1: pipe
// variables, congestion-control variables (cwnd/ssthresh belong to the CC
// instance), and delay/RTT variables, one copy per TDN.
type PathState struct {
	TDN uint8
	CC  cc.Algorithm

	// RTT estimator (RFC 6298); ObserveRTT maintains it.
	SRTT, RTTVar, RTO sim.Dur
	Samples           int32 // RTT samples incorporated

	// Congestion state machine (Figure 4): RecoveryPoint is snd_nxt at the
	// last Recovery/Loss entry. undoPossible says the current episode may
	// still be undone by D-SACKs.
	CA            CAState
	undoPossible  bool
	RecoveryPoint packet.Seq
	DupAcks       int32

	// Pipe counters (§4.3) over the queue entries tagged with this TDN:
	// unacked, SACKed, marked lost, retransmitted and still outstanding.
	PacketsOut, SackedOut, LostOut, RetransOut int32

	// undoRetrans counts the retransmissions of the current recovery episode
	// not yet proven spurious by D-SACKs.
	undoRetrans int

	// Proportional Rate Reduction (RFC 6937) state for the current
	// recovery episode: without it, a large pre-loss window lets the
	// sender re-spray every lost segment at line rate.
	prrDelivered int
	prrOut       int
	recoverFS    int
	// prrAllowance is the unspent send allowance of the most recent ACK.
	prrAllowance int

	// recSpan is the open "recovery" causal span for the current
	// Recovery/Loss episode (0 = none). Opened on the Open/Disorder ->
	// Recovery/Loss entry, kept open across a Recovery -> Loss escalation,
	// and closed on recovery exit or D-SACK undo; see Conn.beginRecoverySpan.
	recSpan trace.SpanID
}

// updatePRR recomputes the recovery send allowance on an ACK that delivered
// deliveredNow segments (RFC 6937): proportional rate reduction while the
// pipe exceeds ssthresh, slow-start-like hole repair below it. The allowance
// is spent by transmissions until the next ACK — computing it once per ACK
// (rather than re-deriving it on every send attempt) is what bounds recovery
// to the delivery rate.
//
// PRR governs fast recovery only; after an RTO (CALoss) Linux repairs by
// plain slow start from cwnd=1, and so do we.
func (ps *PathState) updatePRR(deliveredNow int) {
	if ps.CA != CARecovery {
		return
	}
	pipe := ps.InFlight()
	ssthresh := int(ps.CC.Ssthresh())
	var sndcnt int
	if pipe > ssthresh {
		if ps.recoverFS > 0 {
			sndcnt = (ps.prrDelivered*ssthresh+ps.recoverFS-1)/ps.recoverFS - ps.prrOut
		}
	} else {
		// Slow-start branch: MAX(prr_delivered - prr_out, DeliveredData)+1,
		// never growing the pipe beyond ssthresh.
		sndcnt = ps.prrDelivered - ps.prrOut
		if deliveredNow > sndcnt {
			sndcnt = deliveredNow
		}
		sndcnt++
		if pipe+sndcnt > ssthresh {
			sndcnt = ssthresh - pipe
		}
	}
	if sndcnt < 0 {
		sndcnt = 0
	}
	ps.prrAllowance = sndcnt
}

// prrBudget returns the unspent portion of the current ACK's allowance.
func (ps *PathState) prrBudget() int {
	if ps.CA != CARecovery {
		return 1 << 30
	}
	return ps.prrAllowance
}

// prrSpend charges one transmission against the allowance.
func (ps *PathState) prrSpend() {
	ps.prrOut++
	if ps.prrAllowance > 0 {
		ps.prrAllowance--
	}
}

// enterRecoveryPRR resets the PRR accounting at a recovery/loss entry. The
// initial allowance of 1 lets the fast retransmission go out immediately.
func (ps *PathState) enterRecoveryPRR() {
	ps.prrDelivered = 0
	ps.prrOut = 0
	ps.prrAllowance = 1
	ps.recoverFS = ps.InFlight()
	if ps.recoverFS < 1 {
		ps.recoverFS = 1
	}
}

// InFlight estimates the packets of this state currently in the network:
// sent and neither SACKed nor presumed lost.
//
// Hot path: read on every ACK and send attempt.
func (ps *PathState) InFlight() int {
	n := ps.PacketsOut - ps.SackedOut - ps.LostOut
	if n < 0 {
		n = 0
	}
	return int(n)
}

// Cwnd returns the state's congestion window in packets.
func (ps *PathState) Cwnd() float64 { return ps.CC.Cwnd() }

// ObserveRTT folds a fresh RTT sample into the estimator (RFC 6298) and
// recomputes RTO within [minRTO, maxRTO].
//
// Hot path: runs once per accepted RTT sample.
func (ps *PathState) ObserveRTT(sample sim.Dur, minRTO, maxRTO sim.Dur) {
	if sample <= 0 {
		return
	}
	if ps.Samples == 0 {
		ps.SRTT = sample
		ps.RTTVar = sample / 2
	} else {
		diff := ps.SRTT - sample
		if diff < 0 {
			diff = -diff
		}
		ps.RTTVar = (3*ps.RTTVar + diff) / 4
		ps.SRTT = (7*ps.SRTT + sample) / 8
	}
	ps.Samples++
	rto := ps.SRTT + 4*ps.RTTVar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	ps.RTO = rto
}

// Policy abstracts how a connection manages its path state(s). The
// single-path policy (SinglePath) serves CUBIC/DCTCP, and Circuit adds
// reTCP's reaction to the circuit signal; the TDTCP policy in internal/core
// multiplexes one state per TDN and implements the paper's reordering and
// RTT heuristics.
type Policy interface {
	// Reset returns the policy to the state its constructor left it in,
	// keeping only the constructor's arguments: a reopened connection reuses
	// its policy (see Conn.Reopen). Every policy constructor is new + Reset.
	Reset()
	// Attach binds the policy to its connection; called after Reset each
	// time the connection is initialised (NewConn, Reopen), once the path
	// states are in their initial state.
	Attach(c *Conn)
	// NumStates is the number of PathStates the connection must allocate.
	NumStates() int
	// Active returns the index of the state governing new transmissions.
	Active() int
	// OnNotify delivers a network TDN-change notification that passed
	// Conn.Notify's epoch gate. Conn.Notify runs no transmit engine after
	// it: a policy whose notification can open the window calls Kick.
	OnNotify(tdn int)
	// DataTDN is the TDN tag for outgoing data segments.
	DataTDN() uint8
	// AckTDN is the TDN tag for outgoing ACKs.
	AckTDN() uint8
	// FilterLoss reports whether a loss candidate should be suppressed as
	// suspected cross-TDN reordering (§3.4). trigTDN is the TDN tag on the
	// ACK that exposed the hole (packet.NoTDN when untagged).
	FilterLoss(seg *TxSeg, trigTDN uint8) bool
	// RTTTarget maps an RTT sample measured from a segment sent on dataTDN
	// and acknowledged on ackTDN to the state index that should absorb it;
	// ok=false discards the sample (type-3 mixed samples, §4.4).
	RTTTarget(dataTDN, ackTDN uint8) (state int, ok bool)
	// SegmentRTO returns the retransmission timeout for a segment sent on
	// tdn (§4.4's pessimistic cross-TDN synthesis for TDTCP).
	SegmentRTO(tdn uint8) sim.Dur
}

// SinglePath is the Policy for conventional single-path TCP: one state,
// no TDN awareness, no loss filtering.
type SinglePath struct {
	c *Conn
}

// NewSinglePath returns the conventional single-state policy.
func NewSinglePath() *SinglePath {
	p := new(SinglePath)
	p.Reset()
	return p
}

// Reset implements Policy.
func (p *SinglePath) Reset() { *p = SinglePath{} }

// Attach implements Policy.
func (p *SinglePath) Attach(c *Conn) { p.c = c }

// NumStates implements Policy.
func (p *SinglePath) NumStates() int { return 1 }

// Active implements Policy.
func (p *SinglePath) Active() int { return 0 }

// OnNotify implements Policy: single-path TCP ignores TDN notifications.
func (p *SinglePath) OnNotify(tdn int) {}

// DataTDN implements Policy.
func (p *SinglePath) DataTDN() uint8 { return 0 }

// AckTDN implements Policy.
func (p *SinglePath) AckTDN() uint8 { return 0 }

// FilterLoss implements Policy: never suppress.
func (p *SinglePath) FilterLoss(seg *TxSeg, trigTDN uint8) bool { return false }

// RTTTarget implements Policy: all samples feed the single state.
func (p *SinglePath) RTTTarget(dataTDN, ackTDN uint8) (int, bool) { return 0, true }

// SegmentRTO implements Policy.
func (p *SinglePath) SegmentRTO(tdn uint8) sim.Dur { return p.c.states[0].RTO }

// Circuit is reTCP's policy (Mukerjee et al., NSDI'20): SinglePath plus the
// sender's reaction to the fabric's circuit signal. A notification of TDN 1,
// the circuit, ramps the window through the connection's CircuitUp after
// react; any other TDN restores it through CircuitDown after 2*react. Plain
// reTCP, learning circuit state from in-band marks, lags by react; retcpdyn,
// signalled by the switch, reacts at once (react 0).
type Circuit struct {
	SinglePath
	react    sim.Dur
	up, down func() // CircuitUp and CircuitDown, bound at the first Attach
}

// NewCircuit returns the reTCP policy with the given reaction delay.
func NewCircuit(react sim.Dur) *Circuit {
	p := &Circuit{react: react}
	p.Reset()
	return p
}

// Reset implements Policy, keeping the delay and the bound reactions.
func (p *Circuit) Reset() { *p = Circuit{react: p.react, up: p.up, down: p.down} }

// Attach implements Policy.
func (p *Circuit) Attach(c *Conn) {
	p.c = c
	if p.up == nil {
		p.up, p.down = c.CircuitUp, c.CircuitDown
	}
}

// OnNotify implements Policy: only CircuitUp runs the transmit engine.
func (p *Circuit) OnNotify(tdn int) {
	fn, delay := p.down, 2*p.react
	if tdn == 1 {
		fn, delay = p.up, p.react
	}
	if delay > 0 {
		p.c.Loop.After(delay, fn)
	} else {
		fn()
	}
}
