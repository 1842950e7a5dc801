package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

func TestSeriesBasics(t *testing.T) {
	s := &Series{Label: "x"}
	s.Add(sim.Time(10*sim.Microsecond), 5)
	s.Add(sim.Time(20*sim.Microsecond), 9)
	if s.Len() != 2 || s.Last() != 9 || s.Max() != 9 {
		t.Fatalf("series basics: %+v", s)
	}
	if s.Mean() != 7 {
		t.Fatalf("mean = %v", s.Mean())
	}
	w := s.Window(15, 25)
	if w.Len() != 1 || w.V[0] != 9 {
		t.Fatalf("window: %+v", w)
	}
	if !strings.Contains(s.CSV(), "10.000,5.000") {
		t.Fatalf("csv: %s", s.CSV())
	}
	// Normalize rebases in place and hands back its receiver.
	if n := s.Normalize(); n != s {
		t.Fatalf("normalize returned %p, want the receiver %p", n, s)
	}
	if s.T[0] != 0 || s.V[0] != 0 || s.T[1] != 10 || s.V[1] != 4 {
		t.Fatalf("normalize: %+v", s)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := &Series{}
	if s.Last() != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Fatal("empty series accessors")
	}
	if n := s.Normalize(); n.Len() != 0 {
		t.Fatal("normalize empty")
	}
}

func TestSampler(t *testing.T) {
	loop := sim.NewLoop(1)
	v := 0.0
	loop.At(sim.Time(25*sim.Microsecond), func() { v = 3 })
	sampler := NewSampler(loop, "test", 10*sim.Microsecond, sim.Time(50*sim.Microsecond), sim.Time(50*sim.Microsecond), func() float64 { return v })
	loop.RunUntil(sim.Time(100 * sim.Microsecond))
	// Samples at 0,10,20,30,40,50.
	if sampler.Series.Len() != 6 {
		t.Fatalf("samples = %d: %+v", sampler.Series.Len(), sampler.Series)
	}
	if sampler.Series.V[2] != 0 || sampler.Series.V[3] != 3 {
		t.Fatalf("sampled values wrong: %+v", sampler.Series.V)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{5, 1, 3, 2, 4})
	if c.N() != 5 || c.Min() != 1 || c.Max() != 5 {
		t.Fatalf("cdf basics")
	}
	if got := c.Percentile(50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := c.Percentile(100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := c.FracAtMost(3); got != 0.6 {
		t.Fatalf("FracAtMost(3) = %v", got)
	}
	if got := c.FracAtMost(0); got != 0 {
		t.Fatalf("FracAtMost(0) = %v", got)
	}
	s := c.Series("cdf")
	if s.Len() != 5 || s.V[4] != 1.0 {
		t.Fatalf("cdf series: %+v", s)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.Percentile(50)) || !math.IsNaN(c.FracAtMost(1)) {
		t.Fatal("empty CDF should be NaN")
	}
}

func TestCDFPercentileProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, r := range raw {
			samples[i] = float64(r)
		}
		c := NewCDF(samples)
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		// Percentiles are monotone and bounded by min/max.
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := c.Percentile(p)
			if v < prev || v < sorted[0] || v > sorted[len(sorted)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuckets(t *testing.T) {
	var b Buckets
	b.Close(10) // primes
	b.Close(15)
	b.Close(15)
	b.Close(40)
	want := []float64{5, 0, 25}
	if len(b.Deltas) != 3 {
		t.Fatalf("deltas = %v", b.Deltas)
	}
	for i := range want {
		if b.Deltas[i] != want[i] {
			t.Fatalf("deltas = %v, want %v", b.Deltas, want)
		}
	}
	if b.CDF().Percentile(100) != 25 {
		t.Fatal("bucket cdf")
	}
}

func TestSeriesMaxMinAllNegative(t *testing.T) {
	s := &Series{}
	s.Add(sim.Time(1*sim.Microsecond), -7)
	s.Add(sim.Time(2*sim.Microsecond), -3)
	s.Add(sim.Time(3*sim.Microsecond), -12)
	// Max must come from the samples, not a 0 seed.
	if got := s.Max(); got != -3 {
		t.Fatalf("Max of all-negative series = %v, want -3", got)
	}
	if got := s.Min(); got != -12 {
		t.Fatalf("Min = %v, want -12", got)
	}
	if (&Series{}).Min() != 0 {
		t.Fatal("empty Min should be 0")
	}
}

// TestSamplerSizedOnce: the window and the keep bound fix the stored count, so
// the series is allocated once and ends exactly full — for an interval that
// divides the window and for one that does not, keeping everything, a prefix,
// the first point or nothing — and ticking never reallocates it.
func TestSamplerSizedOnce(t *testing.T) {
	start, until := sim.Time(13*sim.Microsecond), sim.Time(1413*sim.Microsecond)
	for _, interval := range []sim.Dur{5 * sim.Microsecond, 7 * sim.Microsecond} {
		for _, keep := range []sim.Time{until, until.Add(sim.Millisecond), sim.Time(500 * sim.Microsecond), start, 0} {
			loop := sim.NewLoop(1)
			loop.RunUntil(start) // a window that does not start at 0
			sampler := NewSampler(loop, "test", interval, until, keep, func() float64 { return 1 })
			loop.RunUntil(until.Add(sim.Millisecond))
			s := sampler.Series
			want := 0
			if keep >= start {
				want = int(min(keep, until).Sub(start)/interval) + 1
			}
			if len(s.T) != want || len(s.V) != want || cap(s.T) != want || cap(s.V) != want {
				t.Errorf("interval %v, keep %v: len %d/%d cap %d/%d, want %d and full",
					interval, keep, len(s.T), len(s.V), cap(s.T), cap(s.V), want)
			}
			if want > 0 && s.T[want-1] > keep.Microseconds() {
				t.Errorf("interval %v, keep %v: last stored point at %v µs", interval, keep, s.T[want-1])
			}
		}
	}
	// One timer is live at a time and the series never grows, so a window
	// 64 times longer allocates exactly what a short one does.
	allocs := func(weeks int) float64 {
		until := sim.Time(weeks * 1400 * int(sim.Microsecond))
		return testing.AllocsPerRun(5, func() {
			loop := sim.NewLoop(1)
			NewSampler(loop, "test", 5*sim.Microsecond, until, sim.Time(1400*sim.Microsecond), func() float64 { return 1 })
			loop.RunUntil(until)
		})
	}
	if short, long := allocs(1), allocs(64); long != short {
		t.Errorf("a 64-week window allocates %v times, a 1-week window %v: sampling reallocates as it goes", long, short)
	}
}

// TestSamplerSummaryMatchesFullSeries: Mean and Max are accumulated in tick
// order over every sample, stored or not, so whatever the keep bound they are
// the very floats Series.Mean and Series.Max give over a sampler that stored
// everything — equal with ==, not within a tolerance.
func TestSamplerSummaryMatchesFullSeries(t *testing.T) {
	// Values whose sum depends on the order of addition.
	wobble := func(sign float64) func(int) float64 {
		return func(i int) float64 { return sign * (0.1 + 1e16*float64(i%3) + float64(i)/7) }
	}
	for _, tc := range []struct {
		name   string
		until  sim.Time
		stopAt sim.Time // 0 = run the window out
		signal func(int) float64
	}{
		{"mixed", sim.Time(1413 * sim.Microsecond), 0, func(i int) float64 { return wobble(1)(i) - 1e16 }},
		{"all_negative", sim.Time(1413 * sim.Microsecond), 0, wobble(-1)},
		{"one_sample", sim.Time(13 * sim.Microsecond), 0, wobble(-1)},
		{"stopped", sim.Time(1413 * sim.Microsecond), sim.Time(702 * sim.Microsecond), wobble(1)},
	} {
		start := sim.Time(13 * sim.Microsecond)
		run := func(keep sim.Time) *Sampler {
			loop := sim.NewLoop(1)
			loop.RunUntil(start)
			i := 0
			s := NewSampler(loop, "test", 5*sim.Microsecond, tc.until, keep, func() float64 { i++; return tc.signal(i) })
			if tc.stopAt != 0 {
				loop.At(tc.stopAt, s.Stop)
			}
			loop.RunUntil(tc.until.Add(sim.Millisecond))
			return s
		}
		full := run(tc.until).Series
		if full.Len() == 0 || (tc.name == "one_sample") != (full.Len() == 1) {
			t.Fatalf("%s: the full-keep reference stored %d points", tc.name, full.Len())
		}
		for _, keep := range []sim.Time{sim.Time(500 * sim.Microsecond), tc.until, start, 0} {
			s := run(keep)
			if s.Mean() != full.Mean() || s.Max() != full.Max() {
				t.Errorf("%s, keep %v: mean %v max %v, the full series gives %v and %v",
					tc.name, keep, s.Mean(), s.Max(), full.Mean(), full.Max())
			}
			if n := s.Series.Len(); n > full.Len() || (n > 0 && s.Series.T[n-1] > keep.Microseconds()) {
				t.Errorf("%s, keep %v: stored %d points, the last past the bound", tc.name, keep, n)
			}
		}
	}
}

func TestSamplerStop(t *testing.T) {
	loop := sim.NewLoop(1)
	sampler := NewSampler(loop, "test", 10*sim.Microsecond, sim.Time(100*sim.Microsecond), sim.Time(100*sim.Microsecond), func() float64 { return 1 })
	loop.At(sim.Time(35*sim.Microsecond), func() { sampler.Stop() })
	loop.RunUntil(sim.Time(200 * sim.Microsecond))
	// Samples at 0,10,20,30; the 40 µs tick is cancelled.
	if sampler.Series.Len() != 4 {
		t.Fatalf("samples after Stop = %d: %+v", sampler.Series.Len(), sampler.Series.T)
	}
	sampler.Stop() // idempotent after finishing
}

func TestSamplerStopsReschedulingAtWindowEnd(t *testing.T) {
	loop := sim.NewLoop(1)
	NewSampler(loop, "test", 10*sim.Microsecond, sim.Time(50*sim.Microsecond), sim.Time(50*sim.Microsecond), func() float64 { return 0 })
	loop.RunUntil(sim.Time(50 * sim.Microsecond))
	// The 50 µs tick is the last in-window one; no 60 µs timer may remain.
	if live := loop.Live(); live != 0 {
		t.Fatalf("%d timers still live after the sampling window", live)
	}
}

func TestCDFSingleSample(t *testing.T) {
	c := NewCDF([]float64{7})
	for _, p := range []float64{0, 25, 50, 99.9, 100} {
		if got := c.Percentile(p); got != 7 {
			t.Fatalf("Percentile(%v) = %v, want 7", p, got)
		}
	}
	if got := c.FracAtMost(6.999); got != 0 {
		t.Fatalf("FracAtMost below = %v", got)
	}
	if got := c.FracAtMost(7); got != 1 {
		t.Fatalf("FracAtMost at = %v", got)
	}
}

func TestCDFDuplicates(t *testing.T) {
	c := NewCDF([]float64{2, 2, 2, 2, 8})
	if got := c.Percentile(50); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	if got := c.FracAtMost(2); got != 0.8 {
		t.Fatalf("FracAtMost(2) = %v, want 0.8", got)
	}
	if got := c.FracAtMost(1.999); got != 0 {
		t.Fatalf("FracAtMost(1.999) = %v, want 0", got)
	}
	if got := c.FracAtMost(8); got != 1 {
		t.Fatalf("FracAtMost(8) = %v, want 1", got)
	}
}

func TestBucketsPriming(t *testing.T) {
	var b Buckets
	b.Close(100) // primes the baseline only
	if len(b.Deltas) != 0 {
		t.Fatalf("priming recorded a delta: %v", b.Deltas)
	}
	if b.CDF().N() != 0 {
		t.Fatal("primed-only Buckets should yield an empty CDF")
	}
	b.Close(100)
	if len(b.Deltas) != 1 || b.Deltas[0] != 0 {
		t.Fatalf("after second close: %v", b.Deltas)
	}
}

func TestThroughputGbps(t *testing.T) {
	// 125 MB in 100 ms = 10 Gbps.
	if got := ThroughputGbps(125_000_000, 100*sim.Millisecond); math.Abs(got-10) > 1e-9 {
		t.Fatalf("throughput = %v", got)
	}
	if ThroughputGbps(1, 0) != 0 {
		t.Fatal("zero duration")
	}
}
