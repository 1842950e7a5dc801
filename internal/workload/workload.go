// Package workload provides the flowgrind-like traffic model of §5.1 (16
// synchronized long-lived bulk flows) and the analytic reference curves the
// paper plots against: "optimal" (an idealized TCP using the full rate of
// whichever TDN is active, idle during nights) and "packet only" (the packet
// rate continuously, with no reconfiguration blackouts).
package workload

import (
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/stats"
)

// optimalCursor integrates the optimal curve forward in time: the bytes of
// every slot that has ended, plus the active TDN's rate over the elapsed part
// of the slot the cursor stands in. Each term is the per-slot integer
// Rate.BytesIn sum, so a value does not depend on how the cursor got there.
type optimalCursor struct {
	sch   *rdcn.Schedule
	tdns  []rdcn.TDNParams
	slot  int      // index of the slot the cursor stands in
	start sim.Time // when that slot began
	done  int64    // bytes of every slot that ended at or before start
}

// newOptimalCursor returns a cursor standing at the start of the week that
// contains t. Whole weeks before it are not walked: every week delivers the
// same per-slot sum.
func newOptimalCursor(sch *rdcn.Schedule, tdns []rdcn.TDNParams, t sim.Time) optimalCursor {
	c := optimalCursor{sch: sch, tdns: tdns}
	if weeks := int64(t) / int64(sch.Week()); weeks > 0 {
		var perWeek int64
		for i, sl := range sch.Slots {
			perWeek += c.slotBytes(i, sl.Dur)
		}
		c.start = sim.Time(weeks * int64(sch.Week()))
		c.done = weeks * perWeek
	}
	return c
}

// slotBytes returns what slot i delivers in its first d: nothing in a night.
func (c *optimalCursor) slotBytes(i int, d sim.Dur) int64 {
	tdn := c.sch.Slots[i].TDN
	if tdn == rdcn.NightTDN {
		return 0
	}
	return c.tdns[tdn].Rate.BytesIn(d)
}

// at advances to t and returns the optimal bytes delivered by then. t must
// not precede the cursor's slot, i.e. calls are in non-decreasing t.
func (c *optimalCursor) at(t sim.Time) int64 {
	for {
		d := c.sch.Slots[c.slot].Dur
		if in := t.Sub(c.start); in <= d {
			return c.done + c.slotBytes(c.slot, in)
		}
		c.done += c.slotBytes(c.slot, d)
		c.start = c.start.Add(d)
		if c.slot++; c.slot == len(c.sch.Slots) {
			c.slot = 0
		}
	}
}

// OptimalBytes returns the bytes an idealized TCP delivers by time t: the
// active TDN's full bottleneck rate during each day, nothing during nights
// (§2.2's "optimal" curve). It costs at most one pass over the schedule's
// slots whatever t is: whole weeks are multiplied out, not walked.
func OptimalBytes(sch *rdcn.Schedule, tdns []rdcn.TDNParams, t sim.Time) int64 {
	c := newOptimalCursor(sch, tdns, t)
	return c.at(t)
}

// PacketOnlyBytes returns the bytes delivered by an idealized TCP that uses
// only the packet network: a constant rate with no blackout periods.
func PacketOnlyBytes(rate sim.Rate, t sim.Time) int64 {
	return rate.BytesIn(sim.Dur(t))
}

// OptimalSeries samples OptimalBytes on [from, to] at the given step, every
// sample equal to float64(OptimalBytes(t)). It walks the schedule once — its
// cost is the sample count plus the slots the window crosses, never a re-walk
// from t = 0 per sample — and allocates each slice of the series once.
func OptimalSeries(sch *rdcn.Schedule, tdns []rdcn.TDNParams, from, to sim.Time, step sim.Dur) *stats.Series {
	s := stats.NewSeries("optimal", from, to, step)
	c := newOptimalCursor(sch, tdns, from)
	for t := from; t <= to; t = t.Add(step) {
		s.Add(t, float64(c.at(t)))
	}
	return s
}

// PacketOnlySeries samples PacketOnlyBytes on [from, to] at the given step,
// allocating each slice of the series once.
func PacketOnlySeries(rate sim.Rate, from, to sim.Time, step sim.Dur) *stats.Series {
	s := stats.NewSeries("packet only", from, to, step)
	for t := from; t <= to; t = t.Add(step) {
		s.Add(t, float64(PacketOnlyBytes(rate, t)))
	}
	return s
}

// OptimalGbps returns the long-run average rate of the optimal curve.
func OptimalGbps(sch *rdcn.Schedule, tdns []rdcn.TDNParams) float64 {
	week := sim.Time(sch.Week())
	return stats.ThroughputGbps(OptimalBytes(sch, tdns, week), sch.Week())
}
