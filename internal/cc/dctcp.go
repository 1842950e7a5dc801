package cc

import (
	"math"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

// DCTCP implements Data Center TCP (Alizadeh et al., SIGCOMM'10): the sender
// maintains an EWMA estimate α of the fraction of ECN-marked packets and, at
// most once per window, reduces cwnd by α/2 when marks were observed.
type DCTCP struct {
	common

	g     float64 // EWMA gain (Linux default 1/16)
	alpha float64

	windowAcked  int // packets acked in the current observation window
	windowMarked int // of those, ECN-marked
	windowEnd    int // acked packets remaining until the window closes
	reduced      bool
}

// NewDCTCP returns a DCTCP instance with Linux defaults (g = 1/16, α
// initialized to 1 so a new flow backs off hard on first congestion).
func NewDCTCP() *DCTCP {
	d := new(DCTCP)
	d.Reset()
	return d
}

func (d *DCTCP) Name() string { return "dctcp" }

// Reset implements Algorithm.
func (d *DCTCP) Reset() { *d = DCTCP{common: newCommon(), g: 1.0 / 16, alpha: 1} }

// Alpha exposes the current mark-fraction estimate (for tests and traces).
func (d *DCTCP) Alpha() float64 { return d.alpha }

func (d *DCTCP) OnAck(ev AckEvent) {
	d.windowAcked += ev.Acked
	d.windowMarked += ev.ECEMarked
	if d.windowEnd <= 0 {
		d.windowEnd = int(math.Max(d.cwnd, 1))
	}
	d.windowEnd -= ev.Acked

	// Grow like Reno; DCTCP does not change the increase rule.
	d.renoGrow(ev.Acked)

	if d.windowEnd <= 0 {
		// One observation window (≈ one RTT) has elapsed: fold the mark
		// fraction into alpha and apply at most one reduction.
		frac := 0.0
		if d.windowAcked > 0 {
			frac = float64(d.windowMarked) / float64(d.windowAcked)
		}
		d.alpha = float64((1-d.g)*d.alpha) + float64(d.g*frac) // float64(): no FMA (DESIGN §5)
		if d.trace != nil {
			d.trace("alpha", d.alpha, frac)
		}
		if d.windowMarked > 0 {
			d.saveForUndo()
			d.cwnd = clampMin(d.cwnd * (1 - float64(d.alpha/2))) // float64(): no FMA (DESIGN §5)
			d.ssthresh = d.cwnd
			d.emitCwnd("md")
		}
		d.windowAcked, d.windowMarked = 0, 0
		d.windowEnd = int(math.Max(d.cwnd, 1))
	} else {
		d.emitCwnd("grow")
	}
}

func (d *DCTCP) OnEnterRecovery(now sim.Time, inFlight int) {
	d.saveForUndo()
	// Packet loss is handled like Reno (DCTCP's reaction to loss is
	// conventional).
	d.ssthresh = clampMin(float64(inFlight) / 2)
	d.cwnd = d.ssthresh
	d.emitCwnd("md")
}

func (d *DCTCP) OnRTO(now sim.Time, inFlight int) {
	d.saveForUndo()
	d.ssthresh = clampMin(float64(inFlight) / 2)
	d.cwnd = 1
	d.alpha = 1
	d.emitCwnd("rto")
}

func (d *DCTCP) OnRecoveryExit(now sim.Time) {
	d.cwnd = math.Max(d.cwnd, d.ssthresh)
	d.emitCwnd("exit")
}
