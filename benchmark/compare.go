package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict string

const (
	vOK         verdict = "ok"
	vWorse      verdict = "worse"
	vUnresolved verdict = "unresolved"
)

// judge compares b against baseline a for one metric. worse is how much b is
// worse than a as a share of a (negative = better). A metric whose
// repetition-to-repetition spread on either side is wider than its bound
// cannot be called unchanged: it is unresolved unless every sample of one
// side beats every sample of the other.
func judge(d metricDef, a, b metricValue, sameSeed bool) (worse, bound, spread float64, v verdict) {
	bound = d.Bound
	if sameSeed && d.SameSeed > 0 {
		bound = d.SameSeed
	}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	switch {
	case a.Value != 0:
		worse = sign * (b.Value - a.Value) / math.Abs(a.Value)
	case b.Value != 0:
		worse = sign * math.Inf(1) * b.Value
	}
	if a.Value == 0 && b.Value == 0 {
		return 0, bound, 0, vOK
	}
	if d.Exact && sameSeed && bound == 0 {
		// a count of failures: any increase is worse
		if worse > 0 {
			return worse, bound, 0, vWorse
		}
		return worse, bound, 0, vOK
	}
	spread = math.Max(relSpread(a), relSpread(b))
	if spread > bound && len(a.Samples) > 0 && len(b.Samples) > 0 {
		switch {
		case separated(a.Samples, b.Samples, sign) && worse > bound:
			return worse, bound, spread, vWorse
		case separated(b.Samples, a.Samples, sign):
			return worse, bound, spread, vOK
		}
		return worse, bound, spread, vUnresolved
	}
	if worse > bound {
		return worse, bound, spread, vWorse
	}
	return worse, bound, spread, vOK
}

// relSpread is (max-min)/median of a value's repetition samples.
func relSpread(m metricValue) float64 {
	if len(m.Samples) < 2 || m.Value == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range m.Samples {
		lo, hi = math.Min(lo, s), math.Max(hi, s)
	}
	return (hi - lo) / math.Abs(m.Value)
}

// separated reports whether every sample of good is better than every
// sample of bad (sign +1: lower is better).
func separated(good, bad []float64, sign float64) bool {
	worstGood, bestBad := math.Inf(-1), math.Inf(1)
	for _, s := range good {
		worstGood = math.Max(worstGood, sign*s)
	}
	for _, s := range bad {
		bestBad = math.Min(bestBad, sign*s)
	}
	return worstGood < bestBad
}

// compareFiles prints, per (workload, metric) that has a bound, both values,
// the relative difference, the bound and the verdict, and returns 1 if
// anything is worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var a, b resultFile
	for path, f := range map[string]*resultFile{pathA: &a, pathB: &b} {
		if err := readJSON(path, f); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	sameSeed := a.Seed == b.Seed
	fmt.Fprintf(stdout, "compare %s (seed %d) -> %s (seed %d)\n", pathA, a.Seed, pathB, b.Seed)
	if a.Smoke || b.Smoke {
		fmt.Fprintln(stdout, "note: smoke-size results; the numbers mean nothing")
	}
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tworse by\tbound\tspread\tverdict")
	counts := map[verdict]int{}
	matched := 0
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Workload != wb.Workload {
				continue
			}
			matched++
			if sameSeed {
				same := "equal"
				if wa.Digest != wb.Digest {
					same = "DIFFER: simulated results changed"
				}
				fmt.Fprintf(tw, "%s\tdigest\t%.12s\t%.12s\t\t\t\t%s\n", wa.Workload, wa.Digest, wb.Digest, same)
			}
			vb := map[string]metricValue{}
			for _, m := range wb.Metrics {
				vb[m.Name] = m
			}
			for _, ma := range wa.Metrics {
				d, ok := findMetric(ma.Name)
				mb, has := vb[ma.Name]
				if !ok || !has || (d.Bound == 0 && !d.Exact) {
					continue // per-layer metrics are reported, not gated
				}
				if ma.Value == 0 && mb.Value == 0 && ma.Name != "failed_frac" {
					continue // does not apply to this workload
				}
				worse, bound, spread, v := judge(d, ma, mb, sameSeed)
				counts[v]++
				fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g\t%+.2f%%\t%.0f%%\t%.1f%%\t%s\n",
					wa.Workload, ma.Name, ma.Value, ma.Unit, mb.Value, worse*100, bound*100, spread*100, v)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if matched == 0 {
		fmt.Fprintln(stderr, "benchmark: the two files share no workload")
		return 2
	}
	fmt.Fprintf(stdout, "%d ok, %d worse, %d unresolved\n", counts[vOK], counts[vWorse], counts[vUnresolved])
	if counts[vWorse] > 0 {
		return 1
	}
	return 0
}
