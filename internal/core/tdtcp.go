// Package core implements TDTCP (Time-division TCP), the paper's primary
// contribution: a tcp.Policy that multiplexes one complete set of TCP path
// state per time-division network (TDN) over a single connection with a
// unified sequence space.
//
// Responsibilities, mapped to the paper:
//
//   - Per-TDN state variables (§3.1, §4.3): one tcp.PathState per TDN — pipe
//     variables, congestion-control instance, RTT estimator — swapped
//     atomically when the network reconfigures.
//   - TDN change notification (§3.2): OnNotify applies ToR-generated ICMP
//     notifications, discarding stale epochs, and records the TDN change
//     pointer (the first sequence number of the new TDN).
//   - Relaxed reordering detection (§3.4): loss candidates from a different
//     TDN than the triggering ACK, on the far side of the change pointer,
//     are suspected cross-TDN reordering and left to RACK-TLP instead of
//     being retransmitted spuriously.
//   - RTT sample classification (§4.4): type-3 samples (data and ACK on
//     different TDNs) are discarded; matching samples feed their TDN's
//     estimator. Retransmission timeouts use the pessimistic ½RTTₙ +
//     ½RTT_slowest synthesis.
package core

import (
	"fmt"

	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// Options toggles individual TDTCP mechanisms, primarily for the ablation
// benchmarks; the zero value is the full paper design.
type Options struct {
	// DisableRelaxedReordering turns off the §3.4 cross-TDN loss filter.
	DisableRelaxedReordering bool
	// DisableRTTFilter lets type-3 (mixed-TDN) RTT samples pollute the
	// estimators, as plain TCP would.
	DisableRTTFilter bool
	// DisablePessimisticRTO uses the segment TDN's own RTO instead of the
	// §4.4 slowest-TDN synthesis.
	DisablePessimisticRTO bool

	// DeadmanHorizon, together with DeadmanSchedule, arms the notification
	// deadman: when no notification (fresh or stale) has been delivered for
	// this long, the policy infers the active TDN from the nominal schedule
	// instead of waiting forever on a lossy control channel. Without it a
	// run of lost notifications strands every flow on a stale TDN,
	// blackholing cwnd updates into state the fabric no longer serves. Set
	// it above the longest nominal notification gap (the paper's hybrid
	// week delivers one per ~200µs day) so it only trips on genuine loss.
	DeadmanHorizon sim.Dur
	// DeadmanSchedule reports the TDN the nominal schedule makes active at
	// t (ok=false during a night). Typically rdcn.Schedule.At.
	DeadmanSchedule func(t sim.Time) (tdn int, ok bool)
}

// TDTCP is the per-TDN state-multiplexing policy. Create one per connection
// with New and pass it as tcp.Config.Policy.
type TDTCP struct {
	opts    Options
	numTDNs int

	c      *tcp.Conn
	active int

	// DeadmanLag, when non-nil, records the notification gap (nanoseconds
	// since the last delivered notification) at every deadman engagement —
	// the tail of this histogram is how far behind the schedule a flow ran
	// while its control channel was dark.
	DeadmanLag *trace.Histogram

	// changePtr is the TDN change pointer (§3.4): the first sequence
	// number transmitted after the most recent TDN switch.
	changePtr    packet.Seq
	haveChange   bool
	lastSwitchAt sim.Time

	// Deadman fallback state: the arrival time of the latest notification
	// and the self-rearming inference timer (deadmanFn bound once so
	// rearming never allocates).
	lastNotifyAt sim.Time
	deadmanTimer sim.Timer
	deadmanFn    func()

	// Counters (exported via Stats).
	switches        uint64
	staleNotifies   uint64
	deadmanEngaged  uint64
	newTDNsObserved int
}

// Stats reports policy-level counters.
type Stats struct {
	Switches      uint64
	StaleNotifies uint64
	// DeadmanEngaged counts TDN switches inferred from the schedule because
	// notifications went missing beyond the deadman horizon.
	DeadmanEngaged uint64
}

// New returns a TDTCP policy for numTDNs time-division networks.
func New(numTDNs int, opts Options) *TDTCP {
	if numTDNs < 2 {
		panic("core: TDTCP requires at least 2 TDNs")
	}
	if numTDNs > packet.MaxTDNs {
		panic(fmt.Sprintf("core: at most %d TDNs supported", packet.MaxTDNs))
	}
	p := &TDTCP{opts: opts, numTDNs: numTDNs}
	p.Reset()
	return p
}

// Reset implements tcp.Policy: back to TDN 0 with no change pointer, no
// notification seen and every counter zero, keeping New's arguments and the
// bound deadman callback. A deadman timer still armed is stopped, so a policy
// reset without StopDeadman does not end up with two.
func (p *TDTCP) Reset() {
	p.deadmanTimer.Stop()
	*p = TDTCP{opts: p.opts, numTDNs: p.numTDNs, deadmanFn: p.deadmanFn}
}

// Stats returns the policy's counters.
func (p *TDTCP) Stats() Stats {
	return Stats{Switches: p.switches, StaleNotifies: p.staleNotifies, DeadmanEngaged: p.deadmanEngaged}
}

// ActiveTDN returns the TDN currently driving transmissions.
func (p *TDTCP) ActiveTDN() int { return p.active }

// ChangePointer returns the sequence number at the most recent TDN switch
// and whether a switch has happened yet.
func (p *TDTCP) ChangePointer() (packet.Seq, bool) { return p.changePtr, p.haveChange }

// Attach implements tcp.Policy.
func (p *TDTCP) Attach(c *tcp.Conn) {
	p.c = c
	if p.opts.DeadmanHorizon > 0 && p.opts.DeadmanSchedule != nil {
		p.lastNotifyAt = c.Loop.Now()
		if p.deadmanFn == nil {
			p.deadmanFn = p.deadmanFire
		}
		p.deadmanTimer = c.Loop.After(p.opts.DeadmanHorizon, p.deadmanFn)
	}
}

// StopDeadman cancels the deadman timer, letting a drained simulation loop
// terminate (the timer otherwise re-arms itself forever).
func (p *TDTCP) StopDeadman() {
	p.deadmanTimer.Stop()
}

// deadmanFire checks the notification gap and, once it exceeds the horizon,
// adopts the TDN the nominal schedule says is active. lastNotifyAt is left
// untouched by inferred switches — the control channel is still silent, so
// the deadman keeps tracking the schedule every horizon until real
// notifications resume.
func (p *TDTCP) deadmanFire() {
	now := p.c.Loop.Now()
	if gap := now.Sub(p.lastNotifyAt); gap < p.opts.DeadmanHorizon {
		// A notification arrived since arming: sleep until the earliest
		// instant the horizon could lapse again.
		p.deadmanTimer = p.c.Loop.At(p.lastNotifyAt.Add(p.opts.DeadmanHorizon), p.deadmanFn)
		return
	} else if tdn, ok := p.opts.DeadmanSchedule(now); ok && tdn >= 0 && tdn < p.numTDNs && tdn != p.active {
		p.deadmanEngaged++
		p.DeadmanLag.Record(int64(gap))
		if tr := p.c.Tracer; tr.Enabled(trace.CatTDN) {
			tr.Emit(trace.CatTDN, int64(now), "tdn_deadman",
				p.c.FlowID, tdn, float64(p.active), float64(gap), "")
		}
		p.switchTo(tdn)
		p.c.Kick()
	}
	p.deadmanTimer = p.c.Loop.After(p.opts.DeadmanHorizon, p.deadmanFn)
}

// NumStates implements tcp.Policy.
func (p *TDTCP) NumStates() int { return p.numTDNs }

// Active implements tcp.Policy.
func (p *TDTCP) Active() int { return p.active }

// OnNotify implements tcp.Policy: switch the active per-TDN state set.
// Stale-epoch filtering happens in Conn.Notify; here an out-of-range TDN is
// ignored (the §4.2 contract requires both ends to agree on the TDN count).
func (p *TDTCP) OnNotify(tdn int) {
	p.lastNotifyAt = p.c.Loop.Now()
	if tdn < 0 || tdn >= p.numTDNs {
		p.staleNotifies++
		return
	}
	if tdn == p.active {
		return
	}
	p.switchTo(tdn)
}

// switchTo makes tdn the active state set and records the change pointer
// (§3.4): everything below it was (last) sent on an older TDN. Callers are
// the notification path and the deadman fallback.
func (p *TDTCP) switchTo(tdn int) {
	from := p.active
	p.active = tdn
	p.switches++
	p.changePtr = p.c.SndNxt()
	p.haveChange = true
	p.lastSwitchAt = p.c.Loop.Now()
	if tr := p.c.Tracer; tr.Enabled(trace.CatTDN) {
		now := int64(p.c.Loop.Now())
		tr.Emit(trace.CatTDN, now, "tdn_switch",
			p.c.FlowID, tdn, float64(from), float64(p.c.RelSeq(p.changePtr)), "")
		// The swap itself is instantaneous; a zero-length span (rather than
		// a point event) carries the parent link that chains it under the
		// notification that caused it: epoch -> notify -> cwnd_swap.
		sp := tr.BeginSpan(trace.CatTDN, now, "cwnd_swap", p.c.FlowID, tdn, tr.Parent())
		tr.EndSpan(trace.CatTDN, now, "cwnd_swap", p.c.FlowID, tdn, sp, float64(from), float64(p.c.RelSeq(p.changePtr)))
	}
}

// DataTDN implements tcp.Policy.
func (p *TDTCP) DataTDN() uint8 { return uint8(p.active) }

// AckTDN implements tcp.Policy: ACKs are tagged with the TDN the receiver
// believes is active.
func (p *TDTCP) AckTDN() uint8 { return uint8(p.active) }

// FilterLoss implements the §3.4 relaxed reordering detection: a loss
// candidate is suppressed when it was sent on a different TDN than the ACK
// that exposed it and lies on the far side of the TDN change pointer — its
// ACK is very likely just delayed on the slower TDN. True tail losses that
// slip through are recovered by RACK-TLP.
func (p *TDTCP) FilterLoss(seg *tcp.TxSeg, trigTDN uint8) bool {
	if p.opts.DisableRelaxedReordering {
		return false
	}
	trig := trigTDN
	if trig == packet.NoTDN {
		// Untagged ACK (shouldn't happen on a negotiated connection):
		// compare against the currently active TDN.
		trig = uint8(p.active)
	}
	if seg.TDN == trig {
		return false // matching TDN: a genuine hole on this TDN
	}
	if !p.haveChange {
		return false
	}
	// Only segments from before the switch qualify as cross-TDN stragglers.
	if seg.Seq.GEQ(p.changePtr) {
		return false
	}
	// §3.4: true tail losses of a prior TDN are left to RACK-TLP. Once a
	// segment has been outstanding longer than the slowest TDN's RTT (plus
	// variance), its ACK cannot merely be delayed any more — stop
	// suppressing so the loss detectors may claim it.
	if bound := p.slowestRTTBound(); bound > 0 && p.c.Loop.Now().Sub(seg.SentAt) > bound {
		return false
	}
	return true
}

// slowestRTTBound returns the slowest per-TDN SRTT plus variance slack, or 0
// when no estimator has a sample yet.
func (p *TDTCP) slowestRTTBound() sim.Dur {
	var bound sim.Dur
	for _, st := range p.c.States() {
		if st.Samples == 0 {
			continue
		}
		if b := st.SRTT + 4*st.RTTVar; b > bound {
			bound = b
		}
	}
	return bound
}

// RTTTarget implements the §4.4 sample classification: type-1/2 samples
// (data and ACK on the same TDN) feed that TDN's estimator; type-3 mixed
// samples are discarded.
func (p *TDTCP) RTTTarget(dataTDN, ackTDN uint8) (int, bool) {
	if int(dataTDN) >= p.numTDNs {
		return 0, false
	}
	if p.opts.DisableRTTFilter {
		return int(dataTDN), true
	}
	if ackTDN == packet.NoTDN {
		// Peer did not tag (e.g. downgraded peer): accept conservatively.
		return int(dataTDN), true
	}
	if dataTDN != ackTDN {
		return 0, false // type-3: ½RTTᵢ + ½RTTⱼ, poisonous to both estimators
	}
	return int(dataTDN), true
}

// SegmentRTO implements the §4.4 pessimistic timeout: TDTCP knows which TDN
// a segment was sent on but not which TDN its ACK will return on, so it
// assumes the slowest: RTO is built from ½RTTₙ + ½RTT_slowest.
func (p *TDTCP) SegmentRTO(tdn uint8) sim.Dur {
	states := p.c.States()
	if int(tdn) >= len(states) {
		tdn = uint8(p.active)
	}
	own := states[tdn]
	if p.opts.DisablePessimisticRTO {
		return own.RTO
	}
	// Find the slowest TDN with an estimate.
	var slow *tcp.PathState
	for _, st := range states {
		if st.Samples == 0 {
			continue
		}
		if slow == nil || st.SRTT > slow.SRTT {
			slow = st
		}
	}
	if slow == nil || own.Samples == 0 {
		return own.RTO
	}
	synth := own.SRTT/2 + slow.SRTT/2
	rttvar := own.RTTVar
	if slow.RTTVar > rttvar {
		rttvar = slow.RTTVar
	}
	rto := synth + 4*rttvar
	cfg := p.c.Config()
	if rto < cfg.MinRTO {
		rto = cfg.MinRTO
	}
	if rto > cfg.MaxRTO {
		rto = cfg.MaxRTO
	}
	return rto
}

var _ tcp.Policy = (*TDTCP)(nil)
