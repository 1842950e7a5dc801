package cc

import (
	"math"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

// Cubic implements TCP CUBIC (Ha, Rhee, Xu; RFC 8312): cubic window growth
// anchored at the window size before the last loss, with the TCP-friendly
// region that dominates at the microsecond RTTs of data centers.
type Cubic struct {
	common

	beta float64 // multiplicative decrease factor (0.7)
	c    float64 // cubic scaling constant (0.4)

	wMax       float64  // window before the last reduction
	epochStart sim.Time // start of the current growth epoch (0 = unset)
	k          float64  // time (s) to regrow to wMax
	ackCount   float64  // acks since epoch start, for the friendly region
	wEst       float64  // Reno-friendly window estimate
	hasEpoch   bool
}

// NewCubic returns a CUBIC instance with standard constants.
func NewCubic() *Cubic {
	cu := new(Cubic)
	cu.Reset()
	return cu
}

func (cu *Cubic) Name() string { return "cubic" }

// Reset implements Algorithm.
func (cu *Cubic) Reset() { *cu = Cubic{common: newCommon(), beta: 0.7, c: 0.4} }

func (cu *Cubic) resetEpoch() {
	cu.hasEpoch = false
	cu.ackCount = 0
}

func (cu *Cubic) OnAck(ev AckEvent) {
	for i := 0; i < ev.Acked; i++ {
		if cu.cwnd < cu.ssthresh {
			cu.cwnd++
			continue
		}
		cu.congestionAvoidance(ev)
	}
	cu.emitCwnd("grow")
}

func (cu *Cubic) congestionAvoidance(ev AckEvent) {
	if !cu.hasEpoch {
		cu.hasEpoch = true
		cu.epochStart = ev.Now
		if cu.cwnd < cu.wMax {
			cu.k = math.Cbrt(cu.wMax * (1 - cu.beta) / cu.c)
		} else {
			cu.k = 0
			cu.wMax = cu.cwnd
		}
		cu.ackCount = 0
		cu.wEst = cu.cwnd
	}
	t := float64(ev.Now.Sub(cu.epochStart)) / float64(sim.Second)
	target := cu.wMax + float64(cu.c*math.Pow(t-cu.k, 3)) // float64(): no FMA (DESIGN §5)

	// TCP-friendly region (RFC 8312 §4.2): emulate Reno's growth since the
	// epoch started; CUBIC must not be slower than Reno.
	cu.ackCount++
	renoGain := 3 * (1 - cu.beta) / (1 + cu.beta) // per-RTT additive factor
	cu.wEst += renoGain / cu.cwnd
	if cu.wEst > target {
		target = cu.wEst
	}

	if target > cu.cwnd {
		cu.cwnd += (target - cu.cwnd) / cu.cwnd
	} else {
		// Max-probing plateau: grow very slowly.
		cu.cwnd += 0.01 / cu.cwnd
	}
}

func (cu *Cubic) OnEnterRecovery(now sim.Time, inFlight int) {
	cu.saveForUndo()
	w := cu.cwnd
	// Fast convergence: release bandwidth faster when the loss happened
	// below the previous wMax.
	if w < cu.wMax {
		cu.wMax = w * (2 - cu.beta) / 2
	} else {
		cu.wMax = w
	}
	cu.ssthresh = clampMin(w * cu.beta)
	cu.cwnd = cu.ssthresh
	cu.resetEpoch()
	cu.emitCwnd("md")
}

func (cu *Cubic) OnRTO(now sim.Time, inFlight int) {
	cu.saveForUndo()
	cu.wMax = cu.cwnd
	cu.ssthresh = clampMin(cu.cwnd * cu.beta)
	cu.cwnd = 1
	cu.resetEpoch()
	cu.emitCwnd("rto")
}

func (cu *Cubic) OnRecoveryExit(now sim.Time) {
	cu.cwnd = math.Max(cu.cwnd, cu.ssthresh)
	cu.emitCwnd("exit")
}

func (cu *Cubic) Undo() {
	cu.common.Undo()
	cu.resetEpoch()
}
