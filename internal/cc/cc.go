// Package cc implements the congestion-control algorithms the paper
// evaluates: NewReno, CUBIC (the CCA TDTCP runs in every TDN, §3.5), DCTCP,
// and reTCP (Mukerjee et al., NSDI'20). Algorithms own the congestion window
// and slow-start threshold, in packets (MSS units), and are driven by the
// transport through a small event interface.
//
// TDTCP's per-TDN congestion state (§3.1) is realized by instantiating one
// Algorithm per TDN; the transport switches between instances when the
// network reconfigures.
package cc

import (
	"fmt"
	"math"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

// InitialCwnd is the default initial congestion window in packets (Linux's
// default of 10 segments).
const InitialCwnd = 10

// MinCwnd is the floor applied after multiplicative decreases.
const MinCwnd = 2

// AckEvent carries everything an algorithm may need when an ACK advances or
// SACKs data.
type AckEvent struct {
	Now sim.Time
	// Acked is the number of packets newly acknowledged (cumulatively or
	// via SACK).
	Acked int
	// ECEMarked is how many of Acked were reported congestion-marked by
	// the receiver (ECN echo).
	ECEMarked int
	// InFlight is the number of packets still outstanding after this ACK.
	InFlight int
	// RTT is a fresh round-trip sample, or 0 when the ACK yielded none.
	RTT sim.Dur
	// SRTT is the smoothed RTT of the path state this algorithm serves.
	SRTT sim.Dur
}

// Algorithm is a congestion-control algorithm instance. Instances are
// stateful and belong to exactly one path state.
type Algorithm interface {
	Name() string
	// Reset returns the instance to the state its constructor left it in,
	// keeping only the constructor's arguments, so a connection that is
	// reopened for a new flow reuses the instance instead of building
	// another. Every constructor in this package is new + Reset.
	Reset()
	// Cwnd returns the congestion window in packets.
	Cwnd() float64
	// Ssthresh returns the slow-start threshold in packets.
	Ssthresh() float64
	// OnAck is invoked for every ACK that acknowledges new data while the
	// state is not in loss recovery (window growth).
	OnAck(ev AckEvent)
	// OnEnterRecovery is invoked once when fast recovery begins
	// (multiplicative decrease). inFlight is the pipe size at entry.
	OnEnterRecovery(now sim.Time, inFlight int)
	// OnRTO is invoked when the retransmission timer fires.
	OnRTO(now sim.Time, inFlight int)
	// OnRecoveryExit is invoked when recovery or loss completes
	// successfully (snd_una reached the recovery point).
	OnRecoveryExit(now sim.Time)
	// Undo reverts the most recent multiplicative decrease after the
	// transport determines it was triggered spuriously (D-SACK undo).
	Undo()
}

// CircuitAware is implemented by algorithms that react to explicit
// switch-generated circuit notifications (reTCP).
type CircuitAware interface {
	// OnCircuitUp is called when the switch signals that the
	// high-bandwidth circuit is (about to be) available.
	OnCircuitUp(now sim.Time)
	// OnCircuitDown is called when the circuit is torn down.
	OnCircuitDown(now sim.Time)
}

// TraceFunc observes one congestion-control decision. The first two values
// are the post-decision cwnd and ssthresh for window events ("grow", "md",
// "rto", "exit", "undo"); algorithm-specific events document their own
// payloads ("alpha": DCTCP's mark-fraction estimate and window fraction;
// "circuit_up"/"circuit_down": reTCP's post-ramp and pre-ramp windows).
type TraceFunc func(event string, a, b float64)

// Factory builds a fresh algorithm instance. The transport uses one factory
// call per path state.
type Factory func() Algorithm

// algorithms is every algorithm NewFactory knows, by name. needsECN marks
// the ones whose congestion signal is the ECN echo, as Linux's
// TCP_CONG_NEEDS_ECN does: an endpoint running one must negotiate ECN, and
// the queues on its path must mark.
var algorithms = []struct {
	name     string
	mk       Factory
	needsECN bool
}{
	{"reno", func() Algorithm { return NewReno() }, false},
	{"cubic", func() Algorithm { return NewCubic() }, false},
	{"dctcp", func() Algorithm { return NewDCTCP() }, true},
	{"retcp", func() Algorithm { return NewReTCP(DefaultReTCPAlpha) }, false},
}

// NeedsECN reports whether the named algorithm needs ECN; false for a name
// NewFactory does not know.
func NeedsECN(name string) bool {
	for _, a := range algorithms {
		if a.name == name {
			return a.needsECN
		}
	}
	return false
}

// NewFactory returns a factory for the named algorithm: "reno", "cubic",
// "dctcp" or "retcp".
func NewFactory(name string) (Factory, error) {
	for _, a := range algorithms {
		if a.name == name {
			return a.mk, nil
		}
	}
	return nil, fmt.Errorf("cc: unknown algorithm %q", name)
}

// common carries the Reno-style window core shared by all algorithms.
type common struct {
	cwnd     float64
	ssthresh float64
	// prior values stored at the most recent decrease, for Undo.
	priorCwnd     float64
	priorSsthresh float64

	trace TraceFunc
}

// SetTrace attaches a decision observer (nil detaches). Every algorithm in
// this package embeds common, so the transport can wire tracing through a
// plain type assertion without the Algorithm interface growing a method.
func (c *common) SetTrace(fn TraceFunc) { c.trace = fn }

// emitCwnd reports a window decision to the observer, if any.
func (c *common) emitCwnd(event string) {
	if c.trace != nil {
		c.trace(event, c.cwnd, c.ssthresh)
	}
}

// newCommon is the window core of a fresh instance: every Reset assigns its
// whole struct from a literal holding one of these, so a field added later
// starts from zero without being listed.
func newCommon() common {
	return common{cwnd: InitialCwnd, ssthresh: math.Inf(1)}
}

func (c *common) Cwnd() float64     { return c.cwnd }
func (c *common) Ssthresh() float64 { return c.ssthresh }

// renoGrow applies slow start below ssthresh and AIMD above it.
func (c *common) renoGrow(acked int) {
	for i := 0; i < acked; i++ {
		if c.cwnd < c.ssthresh {
			c.cwnd++
		} else {
			c.cwnd += 1 / c.cwnd
		}
	}
}

func (c *common) saveForUndo() {
	c.priorCwnd = c.cwnd
	c.priorSsthresh = c.ssthresh
}

func (c *common) Undo() {
	if c.priorCwnd > 0 {
		c.cwnd = math.Max(c.cwnd, c.priorCwnd)
		c.ssthresh = math.Max(c.ssthresh, c.priorSsthresh)
		c.emitCwnd("undo")
	}
}

func clampMin(v float64) float64 { return math.Max(v, MinCwnd) }

// Reno is TCP NewReno's window algorithm (RFC 6582 behaviour at the CC
// layer).
type Reno struct{ common }

// NewReno returns a NewReno instance.
func NewReno() *Reno {
	r := new(Reno)
	r.Reset()
	return r
}

func (r *Reno) Name() string { return "reno" }

// Reset implements Algorithm.
func (r *Reno) Reset() { *r = Reno{newCommon()} }

func (r *Reno) OnAck(ev AckEvent) {
	r.renoGrow(ev.Acked)
	r.emitCwnd("grow")
}

func (r *Reno) OnEnterRecovery(now sim.Time, inFlight int) {
	r.saveForUndo()
	r.ssthresh = clampMin(float64(inFlight) / 2)
	r.cwnd = r.ssthresh
	r.emitCwnd("md")
}

func (r *Reno) OnRTO(now sim.Time, inFlight int) {
	r.saveForUndo()
	r.ssthresh = clampMin(float64(inFlight) / 2)
	r.cwnd = 1
	r.emitCwnd("rto")
}

func (r *Reno) OnRecoveryExit(now sim.Time) {
	r.cwnd = math.Max(r.cwnd, r.ssthresh)
	r.emitCwnd("exit")
}
