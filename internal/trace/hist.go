package trace

import (
	"math/bits"
	"sync/atomic"
)

// Log-linear histogram (HDR-style): buckets whose widths grow
// geometrically, giving a bounded relative error (~1/histSub ≈ 3%) across
// the full non-negative int64 range with no map in sight. Values are
// dimensionless int64s; by convention the metric name carries the unit
// suffix ("…_ns", "…_pkts").
//
// Layout: values below histSub land in one-wide linear buckets; above
// that, each power-of-two octave is split into histSub linear sub-buckets.
// Bucket idx lives in octave idx>>histSubBits, whose histSub counters are
// allocated by the first Record that lands there: a histogram costs the
// octaves it records, and Record allocates nothing after that.

const (
	histSubBits = 5
	histSub     = 1 << histSubBits // 32 sub-buckets per octave
	// 63-bit values span octaves histSubBits+1..63, each contributing
	// histSub buckets on top of the histSub linear ones.
	histBuckets = histSub + (63-histSubBits)*histSub
)

// histIndex maps a non-negative value to its bucket.
func histIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	k := bits.Len64(uint64(v)) // position of the MSB, ≥ histSubBits+1
	sub := int(v>>uint(k-1-histSubBits)) & (histSub - 1)
	return (k-histSubBits)<<histSubBits + sub
}

// histValue returns the lower bound of bucket idx, the value reported for
// quantiles that land in it.
func histValue(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	o := idx >> histSubBits
	sub := idx & (histSub - 1)
	return int64(histSub+sub) << uint(o-1)
}

// Histogram is one named log-linear latency/size distribution. Obtain
// handles from Registry.Hist at setup time and Record into them on the hot
// path: Record is a pointer load and a few atomic adds, allocation-free
// once its octave exists, and safe for concurrent use. A nil *Histogram is
// the disabled histogram; Record and all accessors are no-ops on it,
// matching the nil-Tracer contract.
type Histogram struct {
	name    string
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	octaves [histBuckets / histSub]atomic.Pointer[[histSub]atomic.Uint64]
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Record adds one observation. Negative values clamp to zero. It runs once
// per RTT sample, VOQ tick and notification, so it must not allocate once
// its octave exists; TestHistogramAllocatesTouchedOctavesOnly and
// TestSteadyStateDoesNotAllocate hold it to that.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := histIndex(v)
	oct := h.octaves[i>>histSubBits].Load()
	if oct == nil {
		oct = h.octave(i >> histSubBits)
	}
	oct[i&(histSub-1)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// octave returns octave o's counters, installing them on its first record.
// CompareAndSwap makes racing first records agree on one array, so none
// loses its count. Kept out of line so Record's steady state stays small.
//
//go:noinline
func (h *Histogram) octave(o int) *[histSub]atomic.Uint64 {
	h.octaves[o].CompareAndSwap(nil, new([histSub]atomic.Uint64))
	return h.octaves[o].Load()
}

// bucket reads bucket i's count; an octave no Record reached reads 0.
func (h *Histogram) bucket(i int) uint64 {
	oct := h.octaves[i>>histSubBits].Load()
	if oct == nil {
		return 0
	}
	return oct[i&(histSub-1)].Load()
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Max returns the largest recorded observation (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns the value at quantile q in [0, 1]: the lower bound of
// the bucket holding the observation of rank q·count rounded half-up (at
// least 1), clamped to Max for the top bucket so Quantile(1) is exact. Of
// 70 observations, Quantile(0.99) is the 69th. Returns 0 when empty. The
// walk reads buckets without a snapshot; for the single-goroutine
// simulation this is exact, under concurrent recording it is approximate.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		c := h.bucket(i)
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			v := histValue(i)
			if max := h.max.Load(); v > max {
				v = max
			}
			return v
		}
	}
	return h.max.Load()
}
