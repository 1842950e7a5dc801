package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

// FlowSizeCDF is an empirical flow-size distribution, the standard way
// datacenter traffic is characterized (the web-search distribution of the
// DCTCP paper, the data-mining distribution of VL2). It is a piecewise-linear
// CDF over flow sizes in bytes: the first point is an atom (all mass up to
// its fraction sits exactly at its size), and between points the inverse
// transform interpolates linearly in size.
type FlowSizeCDF struct {
	Name  string
	sizes []int64   // strictly increasing, bytes
	fracs []float64 // strictly increasing, fracs[len-1] == 1
}

// ParseFlowSizeCDF parses a distribution table: whitespace- or
// comma-separated "size:frac" pairs, where size is a byte count with an
// optional K/M/G (×1e3/1e6/1e9) suffix and frac is the cumulative
// probability. Sizes must be positive and strictly increasing, fractions
// strictly increasing (a repeated fraction is a zero-mass bin) and ending at
// exactly 1. Example:
//
//	"10K:0.15 30K:0.3 200K:0.6 1M:0.8 10M:1"
func ParseFlowSizeCDF(name, text string) (*FlowSizeCDF, error) {
	fields := strings.FieldsFunc(text, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == ','
	})
	if len(fields) == 0 {
		return nil, fmt.Errorf("workload: empty flow-size table")
	}
	c := &FlowSizeCDF{Name: name}
	for _, f := range fields {
		sz, fr, ok := strings.Cut(f, ":")
		if !ok {
			return nil, fmt.Errorf("workload: entry %q is not size:frac", f)
		}
		size, err := parseSize(sz)
		if err != nil {
			return nil, err
		}
		frac, err := strconv.ParseFloat(fr, 64)
		if err != nil || math.IsNaN(frac) || math.IsInf(frac, 0) {
			return nil, fmt.Errorf("workload: bad fraction %q", fr)
		}
		if n := len(c.sizes); n > 0 {
			if size <= c.sizes[n-1] {
				return nil, fmt.Errorf("workload: sizes not strictly increasing at %q", f)
			}
			if frac <= c.fracs[n-1] {
				return nil, fmt.Errorf("workload: zero-mass or non-monotone bin at %q", f)
			}
		} else if frac <= 0 {
			return nil, fmt.Errorf("workload: first fraction %v must be positive", frac)
		}
		if frac > 1 {
			return nil, fmt.Errorf("workload: fraction %v beyond 1", frac)
		}
		c.sizes = append(c.sizes, size)
		c.fracs = append(c.fracs, frac)
	}
	if last := c.fracs[len(c.fracs)-1]; last != 1 {
		return nil, fmt.Errorf("workload: CDF ends at %v, want 1", last)
	}
	return c, nil
}

// parseSize parses a positive byte count with an optional K/M/G suffix.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1e3, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1e6, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1e9, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("workload: bad size %q", s)
	}
	if n <= 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("workload: size %q out of range", s)
	}
	return n * mult, nil
}

// MustFlowSizeCDF parses a distribution table, panicking on error. For
// compile-time-constant tables only.
func MustFlowSizeCDF(name, text string) *FlowSizeCDF {
	c, err := ParseFlowSizeCDF(name, text)
	if err != nil {
		panic(err)
	}
	return c
}

// Sample draws one flow size by inverse-transform sampling from rng (pass
// the sim loop's RNG so traffic is seed-reproducible). It is total: any
// parsed table and any RNG output yields a size in [1, max].
func (c *FlowSizeCDF) Sample(rng *rand.Rand) int64 {
	u := float64(rng.Float64()) // float64(): no FMA (DESIGN §5)
	if u <= c.fracs[0] {
		return c.sizes[0]
	}
	for i := 1; i < len(c.fracs); i++ {
		if u <= c.fracs[i] {
			lo, hi := c.sizes[i-1], c.sizes[i]
			f := (u - c.fracs[i-1]) / (c.fracs[i] - c.fracs[i-1])
			size := lo + int64(f*float64(hi-lo))
			if size < 1 {
				size = 1
			}
			if size > hi {
				size = hi
			}
			return size
		}
	}
	return c.sizes[len(c.sizes)-1]
}

// MeanSize returns the distribution's expected flow size in bytes: the first
// point's atom plus the trapezoid mass of each linear segment.
func (c *FlowSizeCDF) MeanSize() float64 {
	mean := float64(c.sizes[0]) * c.fracs[0]
	for i := 1; i < len(c.sizes); i++ {
		w := c.fracs[i] - c.fracs[i-1]
		mean += float64(w * (float64(c.sizes[i-1]) + float64(c.sizes[i])) / 2) // float64(): no FMA (DESIGN §5)
	}
	return mean
}

// MaxSize returns the largest flow size the distribution can produce.
func (c *FlowSizeCDF) MaxSize() int64 { return c.sizes[len(c.sizes)-1] }

// WebSearch returns the web-search flow-size distribution (after the DCTCP
// paper's production cluster measurement): mostly short query/response flows
// with a tail of multi-megabyte background flows.
func WebSearch() *FlowSizeCDF {
	return MustFlowSizeCDF("websearch",
		"6K:0.15 13K:0.2 19K:0.3 33K:0.4 53K:0.53 133K:0.6 667K:0.7 1333K:0.8 3333K:0.9 6667K:0.97 20M:1")
}

// DataMining returns the data-mining flow-size distribution (after VL2's
// measurement): the vast majority of flows are mice under 10 KB while nearly
// all bytes ride a few elephant flows.
func DataMining() *FlowSizeCDF {
	return MustFlowSizeCDF("datamining",
		"100:0.1 300:0.3 1K:0.5 2K:0.6 10K:0.8 100K:0.9 1M:0.95 10M:0.98 100M:1")
}

// ByName resolves a built-in distribution ("websearch" or "datamining").
func ByName(name string) (*FlowSizeCDF, error) {
	switch name {
	case "websearch":
		return WebSearch(), nil
	case "datamining":
		return DataMining(), nil
	}
	return nil, fmt.Errorf("workload: unknown flow-size distribution %q (want websearch or datamining)", name)
}

// Interarrival draws one open-loop Poisson interarrival gap: exponentially
// distributed with the given mean. The result is always positive so an
// arrival process can never stall at a zero gap.
func Interarrival(rng *rand.Rand, mean sim.Dur) sim.Dur {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	d := sim.Dur(-math.Log(u) * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// MeanInterarrival returns the Poisson interarrival mean that loads a
// bottleneck of the given rate to the given utilization with flows drawn
// from c: gap = meanSize / (load × rate).
func MeanInterarrival(c *FlowSizeCDF, load float64, rate sim.Rate) sim.Dur {
	if load <= 0 || rate <= 0 {
		return sim.Second
	}
	bytesPerSec := load * float64(rate) / 8
	gap := c.MeanSize() / bytesPerSec * float64(sim.Second)
	if gap < 1 {
		gap = 1
	}
	return sim.Dur(gap)
}
