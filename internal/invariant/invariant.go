// Package invariant is the runtime consistency checker for faulted runs: it
// hooks the simulation loop's post-event point and revalidates every watched
// tcp.Conn (scoreboard/sequence/pipe-counter invariants), mptcp.Conn (its
// subflows and DSN queue) and rdcn.Network (VOQ accounting) after each
// executed event, between events — never mid-update, when transient
// inconsistency is legal.
//
// The checkers themselves live next to the state they validate
// (tcp.Conn.CheckInvariants, rdcn.Network.CheckInvariants); this package
// only drives them and turns the first failure per site into a recorded
// Violation with the virtual timestamp and trace context needed to replay
// it: re-run with the same seeds and a trace writer, and the violation's
// event is the one right before the CatFault "invariant_violation" record.
package invariant

import (
	"fmt"
	"io"

	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// Violation is one recorded invariant failure.
type Violation struct {
	At   sim.Time
	Site string // "conn[<flow>]" or "network"
	Err  error
}

func (v Violation) String() string {
	return fmt.Sprintf("%v %s: %v", v.At, v.Site, v.Err)
}

// watched is one registered site: fn runs on every sweep, and its first
// error is reported at site, labelled with flow, and latches the site out.
type watched struct {
	site   string
	flow   int
	fn     func() error
	failed bool
}

// Checker validates watched objects after every simulation event. Construct
// with New (which installs the loop hook), then register sites with
// WatchConn/WatchNetwork at any point.
type Checker struct {
	loop    *sim.Loop
	tracer  *trace.Tracer
	metrics *trace.Registry
	flight  *trace.Flight
	dumpTo  io.Writer

	// sites are swept in registration order, so the first violation, which
	// decides FlightSnapshot and the dump banner, is the first registered
	// site's to fail.
	sites []watched

	// Every checks only every n-th event when > 1 (a throttle for very long
	// runs; the default 1 checks after every event).
	Every int

	events     uint64
	checks     uint64
	violations []Violation
	flightSnap []trace.Event
}

// New returns a checker hooked into loop's post-event point. An existing
// PostEvent hook is chained, not clobbered.
func New(loop *sim.Loop) *Checker {
	c := &Checker{loop: loop, Every: 1}
	prev := loop.PostEvent
	loop.PostEvent = func() {
		if prev != nil {
			prev()
		}
		c.step()
	}
	return c
}

// SetTracer attaches a tracer; violations emit trace.CatFault events.
func (c *Checker) SetTracer(tr *trace.Tracer) { c.tracer = tr }

// SetMetrics attaches a registry; violations bump "invariant.violations".
func (c *Checker) SetMetrics(reg *trace.Registry) { c.metrics = reg }

// SetFlight attaches a flight recorder: the first violation snapshots its
// ring (see FlightSnapshot) and, when w is non-nil, dumps it as JSONL with a
// banner line — the post-mortem view of the events leading into the failure.
func (c *Checker) SetFlight(f *trace.Flight, w io.Writer) {
	c.flight = f
	c.dumpTo = w
}

// FlightSnapshot returns the flight recorder's contents captured at the
// first violation (nil when no violation occurred or no recorder attached).
func (c *Checker) FlightSnapshot() []trace.Event { return c.flightSnap }

// WatchConn registers a connection (a tcp.Conn or an mptcp.Conn); flow
// labels its violations.
func (c *Checker) WatchConn(conn interface{ CheckInvariants() error }, flow int) {
	c.WatchFunc(fmt.Sprintf("conn[%d]", flow), flow, conn.CheckInvariants)
}

// WatchNetwork registers a network.
func (c *Checker) WatchNetwork(n *rdcn.Network) {
	c.WatchFunc("network", -1, n.CheckInvariants)
}

// WatchFunc registers an arbitrary invariant: fn runs on every sweep and a
// non-nil return is a violation at site (flow labels it; pass -1 for
// non-flow sites). Like the built-in sites, a failed func is latched out of
// further checking. This is the seam for experiment-specific invariants the
// core does not know about.
func (c *Checker) WatchFunc(site string, flow int, fn func() error) {
	c.sites = append(c.sites, watched{site: site, flow: flow, fn: fn})
}

// Checks reports how many post-event sweeps have run.
func (c *Checker) Checks() uint64 { return c.checks }

// Violations returns the recorded violations — at most one per watched
// site, because a failed site is latched out of further checking (a broken
// invariant persists across events and would otherwise flood the record
// with copies of itself).
func (c *Checker) Violations() []Violation { return c.violations }

// Err returns the first violation as an error, or nil.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	v := c.violations[0]
	return fmt.Errorf("invariant: %s at %v: %w (%d total)", v.Site, v.At, v.Err, len(c.violations))
}

func (c *Checker) step() {
	c.events++
	if c.Every > 1 && c.events%uint64(c.Every) != 0 {
		return
	}
	c.checks++
	for i := range c.sites {
		w := &c.sites[i]
		if w.failed {
			continue
		}
		if err := w.fn(); err != nil {
			w.failed = true
			c.report(w.site, w.flow, err)
		}
	}
}

func (c *Checker) report(site string, flow int, err error) {
	now := c.loop.Now()
	c.violations = append(c.violations, Violation{At: now, Site: site, Err: err})
	c.metrics.Add("invariant.violations", 1)
	if c.tracer.Enabled(trace.CatFault) {
		c.tracer.Emit(trace.CatFault, int64(now), "invariant_violation",
			flow, -1, float64(len(c.violations)), 0, err.Error())
	}
	if c.flight != nil && c.flightSnap == nil {
		// First violation: freeze the post-mortem view before further events
		// push the interesting records out of the ring.
		c.flightSnap = c.flight.Events()
		if c.dumpTo != nil {
			fmt.Fprintf(c.dumpTo, "== flight recorder dump (invariant violation, %s at %v): last %d events ==\n",
				site, now, c.flight.Len())
			_ = c.flight.Dump(c.dumpTo) // best-effort post-mortem
		}
	}
}
