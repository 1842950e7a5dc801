package cc

import (
	"math"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

// DefaultReTCPAlpha is the multiplicative window ramp applied on an explicit
// circuit-up notification. The reTCP paper tunes this to the circuit:packet
// bandwidth ratio and buffer depth; 3 best fills the emulated fabric's
// 16-to-50-packet VOQs without catastrophic overshoot.
const DefaultReTCPAlpha = 3

// ReTCP implements the sender side of reTCP (Mukerjee et al., NSDI'20):
// Reno-style congestion control plus an explicit in-network signal that the
// optical circuit is (about to become) available, to which the sender reacts
// by multiplicatively increasing its window. On circuit teardown the window
// returns to its pre-ramp value.
//
// reTCP's effectiveness depends on the switch also resizing its buffers in
// advance of the circuit ("retcpdyn" in the paper's figures); that half
// lives in the rdcn package's PreChange support.
type ReTCP struct {
	common

	alpha     float64
	ramped    bool
	preRamp   float64
	rampedAt  sim.Time
	rampCount int
}

// NewReTCP returns a reTCP instance with the given circuit-up ramp factor.
func NewReTCP(alpha float64) *ReTCP {
	if alpha < 1 {
		alpha = 1
	}
	r := &ReTCP{alpha: alpha}
	r.Reset()
	return r
}

func (r *ReTCP) Name() string { return "retcp" }

// Reset implements Algorithm; the ramp factor is the constructor's argument
// and stays.
func (r *ReTCP) Reset() { *r = ReTCP{common: newCommon(), alpha: r.alpha} }

// RampCount reports how many circuit-up ramps have been applied (for tests).
func (r *ReTCP) RampCount() int { return r.rampCount }

func (r *ReTCP) OnAck(ev AckEvent) {
	r.renoGrow(ev.Acked)
	r.emitCwnd("grow")
}

func (r *ReTCP) OnEnterRecovery(now sim.Time, inFlight int) {
	r.saveForUndo()
	r.ssthresh = clampMin(float64(inFlight) / 2)
	r.cwnd = r.ssthresh
	r.ramped = false
	r.emitCwnd("md")
}

func (r *ReTCP) OnRTO(now sim.Time, inFlight int) {
	r.saveForUndo()
	r.ssthresh = clampMin(float64(inFlight) / 2)
	r.cwnd = 1
	r.ramped = false
	r.emitCwnd("rto")
}

func (r *ReTCP) OnRecoveryExit(now sim.Time) {
	r.cwnd = math.Max(r.cwnd, r.ssthresh)
	r.emitCwnd("exit")
}

// OnCircuitUp applies the multiplicative ramp. Repeated notifications while
// ramped are idempotent.
func (r *ReTCP) OnCircuitUp(now sim.Time) {
	if r.ramped {
		return
	}
	r.ramped = true
	r.rampCount++
	r.rampedAt = now
	r.preRamp = r.cwnd
	r.cwnd *= r.alpha
	if r.trace != nil {
		r.trace("circuit_up", r.cwnd, r.preRamp)
	}
}

// OnCircuitDown restores the pre-ramp window, keeping any additive growth
// earned since proportionally.
func (r *ReTCP) OnCircuitDown(now sim.Time) {
	if !r.ramped {
		return
	}
	r.ramped = false
	r.cwnd = math.Max(r.preRamp, r.cwnd/r.alpha)
	if r.trace != nil {
		r.trace("circuit_down", r.cwnd, r.preRamp)
	}
}
