// Package stats provides the measurement plumbing behind the paper's
// figures: time series (sequence graphs, VOQ occupancy), CDFs (reordering
// and retransmission distributions), periodic samplers, per-optical-day
// bucketing, and throughput computation.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

// Series is a time series: T in microseconds, V in arbitrary units.
type Series struct {
	Label string
	T     []float64
	V     []float64
}

// NewSeries returns an empty series with room for exactly the samples a
// fixed cadence produces on [from, to]: from, from+step, ... while ≤ to, that
// is (to−from)/step + 1 of them (none when from > to). Filling it with Add
// never reallocates, so a producer that knows its window costs one
// allocation per slice. step must be positive.
func NewSeries(label string, from, to sim.Time, step sim.Dur) *Series {
	n := 0
	if from <= to {
		n = int(to.Sub(from)/step) + 1
	}
	return &Series{Label: label, T: make([]float64, 0, n), V: make([]float64, 0, n)}
}

// Add appends one sample.
func (s *Series) Add(t sim.Time, v float64) {
	s.T = append(s.T, t.Microseconds())
	s.V = append(s.V, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// Normalize shifts the series so its first sample sits at (0, 0) — the paper
// normalizes both axes of its sequence graphs to the plotted window's start.
// It rebases in place and returns its receiver: one pass, no allocation. A
// caller that still needs the unshifted samples must copy them first.
func (s *Series) Normalize() *Series {
	if len(s.T) == 0 {
		return s
	}
	t0, v0 := s.T[0], s.V[0]
	for i := range s.T {
		s.T[i] -= t0
		s.V[i] -= v0
	}
	return s
}

// Window returns the sub-series with from ≤ T < to (microseconds).
func (s *Series) Window(from, to float64) *Series {
	out := &Series{Label: s.Label}
	for i := range s.T {
		if s.T[i] >= from && s.T[i] < to {
			out.T = append(out.T, s.T[i])
			out.V = append(out.V, s.V[i])
		}
	}
	return out
}

// Last returns the final value (0 if empty).
func (s *Series) Last() float64 {
	if len(s.V) == 0 {
		return 0
	}
	return s.V[len(s.V)-1]
}

// Max returns the maximum value (0 if empty). The maximum is taken over the
// samples alone — an all-negative series reports its true (negative) max,
// not 0.
func (s *Series) Max() float64 {
	if len(s.V) == 0 {
		return 0
	}
	m := s.V[0]
	for _, v := range s.V[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum value (0 if empty).
func (s *Series) Min() float64 {
	if len(s.V) == 0 {
		return 0
	}
	m := s.V[0]
	for _, v := range s.V[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean of V (0 if empty).
func (s *Series) Mean() float64 {
	if len(s.V) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.V {
		sum += v
	}
	return sum / float64(len(s.V))
}

// CSV renders the series as "t_us,value" lines.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Label)
	for i := range s.T {
		fmt.Fprintf(&b, "%.3f,%.3f\n", s.T[i], s.V[i])
	}
	return b.String()
}

// Sampler polls a value function on a fixed cadence. It always keeps the
// count, sum and maximum of what it samples, accumulated in tick order, so
// Mean and Max are bit-equal to those of a Series holding every sample; the
// points themselves go into Series only up to the keep bound, so what a
// sampler holds follows the window someone will plot, not the run.
type Sampler struct {
	Series      *Series
	loop        *sim.Loop
	interval    sim.Dur
	value       func() float64
	until, keep sim.Time
	n           int
	sum, max    float64
	timer       sim.Timer
	tickFn      func()
	stopped     bool
}

// NewSampler arms a periodic sampler on loop from the current time until
// until (inclusive of the start point), storing the points sampled at or
// before keep (none when keep precedes the current time; all when it is until
// or later). The bounds fix the stored count, so the series is sized once here
// and ends with len == cap: the sampler's cost is one allocation per slice
// plus one timer per tick.
func NewSampler(loop *sim.Loop, label string, interval sim.Dur, until, keep sim.Time, value func() float64) *Sampler {
	keep = min(keep, until)
	s := &Sampler{Series: NewSeries(label, loop.Now(), keep, interval),
		loop: loop, interval: interval, value: value, until: until, keep: keep}
	s.tickFn = s.tick
	s.tick()
	return s
}

// Stop cancels the sampler before its window ends; the collected series and
// summary are kept. Stopping an already-finished sampler is a no-op.
func (s *Sampler) Stop() {
	s.stopped = true
	s.timer.Stop()
}

// Mean returns the arithmetic mean of every value sampled (0 if none).
func (s *Sampler) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Max returns the largest value sampled (0 if none).
func (s *Sampler) Max() float64 { return s.max }

func (s *Sampler) tick() {
	now := s.loop.Now()
	if s.stopped || now > s.until {
		return
	}
	v := s.value()
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	if now <= s.keep {
		s.Series.Add(now, v)
	}
	// Reschedule only while the next tick still lands inside the window —
	// the final past-the-end wake-up would sample nothing anyway, and not
	// arming it keeps the loop's timer queue clean after the window closes.
	if now.Add(s.interval) <= s.until {
		s.timer = s.loop.After(s.interval, s.tickFn)
	}
}

// CDF summarizes a sample set as an empirical CDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF (the input slice is copied).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// Percentile returns the p-th percentile (p in [0,100]).
func (c *CDF) Percentile(p float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 100 {
		return c.sorted[len(c.sorted)-1]
	}
	rank := float64(p / 100 * float64(len(c.sorted)-1)) // float64(): no FMA (DESIGN §5)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c.sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(c.sorted[lo]*(1-frac)) + float64(c.sorted[hi]*frac) // float64(): no FMA (DESIGN §5)
}

// Min and Max return the extremes.
func (c *CDF) Min() float64 { return c.Percentile(0) }

// Max returns the largest sample.
func (c *CDF) Max() float64 { return c.Percentile(100) }

// FracAtMost returns the fraction of samples ≤ x.
func (c *CDF) FracAtMost(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Series renders the CDF as a plottable (value, fraction) series.
func (c *CDF) Series(label string) *Series {
	s := &Series{Label: label}
	n := len(c.sorted)
	for i, v := range c.sorted {
		s.T = append(s.T, v)
		s.V = append(s.V, float64(i+1)/float64(n))
	}
	return s
}

// Buckets accumulates per-interval deltas of a monotone counter: the paper's
// per-optical-day reordering/retransmission counts (Fig. 10).
type Buckets struct {
	last   float64
	primed bool
	Deltas []float64
}

// Close finishes the current bucket at counter value v and starts the next.
// The first call primes the baseline without recording.
func (b *Buckets) Close(v float64) {
	if b.primed {
		b.Deltas = append(b.Deltas, v-b.last)
	}
	b.last = v
	b.primed = true
}

// CDF returns the distribution of bucket deltas.
func (b *Buckets) CDF() *CDF { return NewCDF(b.Deltas) }

// ThroughputGbps converts bytes over a duration into Gbps.
func ThroughputGbps(bytes int64, d sim.Dur) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / (float64(d) / float64(sim.Second)) / 1e9
}
