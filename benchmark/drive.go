package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/rdcn-net/tdtcp/internal/experiments"
)

// setupReps is how many times a workload's set-up (building its inputs and
// the untimed warm-up) runs; setup_s is the median, so one slow first touch
// does not decide it.
const setupReps = 9

// measureSetup returns setup_s: the time from process start to the first
// set-up, plus the median of setupReps set-ups (2 at smoke size).
func measureSetup(sz sizes, setup func()) float64 {
	pre := time.Since(processStart).Seconds()
	d := make([]float64, setupReps)
	if sz.smoke {
		d = d[:2]
	}
	for i := range d {
		t0 := time.Now()
		setup()
		d[i] = time.Since(t0).Seconds()
	}
	return pre + median(d)
}

// repCost is the host cost of one repetition.
type repCost struct {
	wall, cpu time.Duration
	allocKB   float64
}

// timed runs f between a forced collection (so every repetition starts from
// the same heap) and readings of the wall clock, process CPU and TotalAlloc.
func timed(f func()) repCost {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0, c0, t0 := ms.TotalAlloc, cpuTime(), time.Now()
	f()
	c := repCost{wall: time.Since(t0), cpu: cpuTime() - c0}
	runtime.ReadMemStats(&ms)
	c.allocKB = float64(ms.TotalAlloc-a0) / 1024
	return c
}

// hostSamples collects the per-repetition host-time metrics every workload
// shares.
type hostSamples struct{ rate, cpu, alloc []float64 }

func (h *hostSamples) add(c repCost, weeks int) {
	w := float64(max(weeks, 1))
	h.rate = append(h.rate, w/c.wall.Seconds())
	h.cpu = append(h.cpu, float64(c.cpu.Microseconds())/1e3/w)
	h.alloc = append(h.alloc, c.allocKB/w)
}

// record reports the median repetition and, last thing a run does, the
// process's memory high-water mark.
func (h *hostSamples) record(ms *metricSet) {
	ms.setMedian("sim_weeks_per_sec", h.rate)
	ms.setMedian("cpu_ms_per_sim_week", h.cpu)
	ms.setMedian("alloc_kb_per_sim_week", h.alloc)
	ms.set("peak_rss_mb", peakRSSMB())
}

// repeat runs rep, which returns how long it took, while another repetition
// as long as the last one still fits in the -seconds budget — and at least
// twice, because the digest check needs a pair. Smoke runs stop at two.
func repeat(o options, rep func() time.Duration) int {
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for n := 1; ; n++ {
		last := rep()
		if n >= 2 && (o.smoke || time.Since(start)+last > budget) {
			return n
		}
	}
}

// digestMismatches counts the repetitions whose result digest differs from
// the first one's: each is a failed operation (same workload, same seed, a
// different simulation).
func digestMismatches(digests []string) int {
	n := 0
	for _, d := range digests[1:] {
		if d != digests[0] {
			n++
		}
	}
	return n
}

// finish fills the bookkeeping every workload shares. Failures found after
// the fact (digest mismatches) may exceed nothing: failed is capped at
// attempted so failed_frac stays a fraction.
func (r *workloadResult) finish(ms *metricSet, defs []metricDef) {
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	ms.set("failed_frac", frac)
	r.Metrics = ms.list(defs)
}

// untracedDefs is what an untraced pass reports: the driver's end-to-end
// set, then the demoted end-to-end metrics.
var untracedDefs = append(append([]metricDef{}, endToEnd...), demoted...)

// span is one interval recorded by the benchmark around a call into the
// program. Retimed marks a child that was measured by repeating the call
// with identical arguments after the parent returned (the program has no
// spans of its own yet); it is drawn at the end of its parent.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Retimed bool   `json:"retimed,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing. Safe for the two client goroutines of serve_jobs.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, StartNs: now})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].EndNs = now
	l.mu.Unlock()
}

// retimed adds a child measured after the fact, placed at its parent's end.
func (l *spanLog) retimed(name string, parent int, d time.Duration) {
	if l == nil || parent == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	end := l.spans[parent-1].EndNs
	l.spans = append(l.spans, span{Name: name, ID: len(l.spans) + 1, Parent: parent,
		StartNs: end - d.Nanoseconds(), EndNs: end, Retimed: true})
}

func (l *spanLog) write(o options) error {
	return writeJSON(filepath.Join(o.outdir, o.workload+".spans.json"), l.spans)
}

// runSimWorkload drives one of the three simulation workloads.
func runSimWorkload(o options, w simWorkload, stderr io.Writer) (*workloadResult, error) {
	sz := o.sizes()
	res := &workloadResult{Workload: w.name}
	ms := newMetricSet()
	var setupErr error
	setupS := measureSetup(sz, func() {
		// The warm-up: a figure-size TDTCP run on a seed no repetition uses.
		if _, err := experiments.Run(figureRun(sz, o.seed*1000+999)); err != nil {
			setupErr = err
		}
	})
	if setupErr != nil {
		return nil, fmt.Errorf("warm-up: %w", setupErr)
	}
	if o.traced {
		return tracedSim(o, w, res, ms)
	}

	var host hostSamples
	var digests []string
	var last simOut
	res.Reps = repeat(o, func() time.Duration {
		c := timed(func() { last = w.run(sz, o.seed, nil) })
		host.add(c, last.weeks)
		digests = append(digests, last.digest)
		res.Attempted += last.ops
		res.Failed += last.failed
		res.Notes = append(res.Notes, last.notes...)
		fmt.Fprintf(stderr, "benchmark: %s repetition %d: %.3fs\n", w.name, len(digests), c.wall.Seconds())
		return c.wall
	})
	if n := digestMismatches(digests); n > 0 {
		res.Failed += n
		res.Notes = append(res.Notes, fmt.Sprintf("%d repetitions disagree with the first one's digest", n))
	}
	res.Digest = digests[0]
	ms.set("setup_s", setupS)
	ms.set("sim_goodput_gbps", last.goodputGbps)
	if last.fctN > 0 {
		ms.set("sim_fct_p99_us", last.fctP99Us).N = last.fctN
	}
	host.record(ms)
	res.finish(ms, untracedDefs)
	return res, nil
}

// tracedSim is the traced pass of a sim workload: one untraced repetition
// (the wall time everything is divided by), the same repetition observed,
// then the ladder, the overhead pairs and the attribution.
func tracedSim(o options, w simWorkload, res *workloadResult, ms *metricSet) (*workloadResult, error) {
	sz := o.sizes()
	var base, obs simOut
	cu := timed(func() { base = w.run(sz, o.seed, nil) })

	ob := newObservation()
	ob.spans = newSpanLog()
	ob.parent = ob.spans.begin("rep", 0)
	ct := timed(func() { obs = w.run(sz, o.seed, ob) })
	ob.spans.end(ob.parent)
	for _, f := range ob.after {
		f()
	}

	res.Reps = 2
	res.Attempted = base.ops + obs.ops
	res.Failed = base.failed + obs.failed
	res.Notes = append(base.notes, obs.notes...)
	res.Digest = base.digest
	if obs.digest != base.digest {
		res.Failed++
		res.Notes = append(res.Notes, "the observed repetition's digest differs from the unobserved one's")
	}
	if base.fctN > 0 {
		ms.set("sim_fct_p99_us", base.fctP99Us).N = base.fctN
	}
	for name, v := range obs.counts {
		if _, ok := findMetric(name); ok { // the rest are attribution inputs
			ms.set(name, v)
		}
	}
	weeks, wall := float64(base.weeks), cu.wall.Seconds()
	ms.set("sim.events_per_sim_week", obs.counts["sim.events_fired"]/weeks)
	ms.set("sim.events_per_sec", obs.counts["sim.events_fired"]/wall)
	if d := obs.counts["tcp.data_segs"]; d > 0 {
		ms.set("tcp.retransmit_ratio", obs.counts["tcp.retransmits"]/d)
	}
	ms.set("trace.jsonl_overhead_pct", (ct.wall.Seconds()-wall)/wall*100)
	runLadder(sz, ms)
	runOverheads(sz, ms)
	attribute(ms, obs.counts, w.name, wall)
	if err := ob.spans.write(o); err != nil {
		return nil, err
	}
	res.finish(ms, perLayer)
	return res, nil
}
