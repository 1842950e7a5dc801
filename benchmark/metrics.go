package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one metric: the single table BENCHMARK.json is checked
// against (bench_test.go) and -compare takes its bounds from.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline by which the metric may worsen
	// before -compare calls it worse (and, for end-to-end metrics, before
	// the driver rejects a change). 0 on a per-layer metric means "reported,
	// not gated".
	Bound float64
	// SameSeed, when non-zero, replaces Bound in -compare when both result
	// files were taken with the same seed: simulated values repeat exactly
	// for a fixed seed, so the loose across-seed bound is not needed.
	SameSeed float64
	// Exact marks a metric that must be 0 or repeat bit-for-bit for a fixed
	// seed; -compare flags any increase of a zero baseline.
	Exact bool
}

// endToEnd is what every workload prints with -trace 0. Every metric is
// defined on every workload (the driver requires it); the serve- and
// FCT-specific numbers the issue also calls end-to-end are in demoted below.
// Host time unless the name starts with sim_.
//
// Bounds are three times the widest spread (IQR ÷ median over ten seeds)
// seen on the 2-core box this was written on, capped at the driver's 0.25.
// That box's speed wanders ±10 % over minutes, which is what sets every
// host-time bound; the issue's 10 % would have been inside the noise.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: hostBound},
	{Name: "sim_weeks_per_sec", Unit: "1/s", Better: "higher", Bound: hostBound},
	{Name: "cpu_ms_per_sim_week", Unit: "ms", Better: "lower", Bound: hostBound},
	{Name: "alloc_kb_per_sim_week", Unit: "kB", Better: "lower", Bound: 0.09, SameSeed: 0.03},
	{Name: "sim_goodput_gbps", Unit: "Gbps", Better: "higher", Bound: 0.18, SameSeed: 0.01, Exact: true},
}

// hostBound gates the host-time metrics.
const hostBound = 0.25

// demoted are end-to-end in meaning (a user of tdserve or of the FCT figures
// sees them) but exist on one workload only, so the driver cannot gate them:
// they are printed by every untraced run, listed per-layer in BENCHMARK.json
// (0 where they do not apply) and gated by -compare with these bounds.
var demoted = []metricDef{
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "sim_fct_p99_us", Unit: "sim_us", Better: "lower", Bound: 0.25, SameSeed: 0.01, Exact: true},
	{Name: "miss_jobs_per_sec", Unit: "1/s", Better: "higher", Bound: hostBound},
	{Name: "miss_latency_ms_p50", Unit: "ms", Better: "lower", Bound: hostBound},
	{Name: "hit_jobs_per_sec", Unit: "1/s", Better: "higher", Bound: hostBound},
	{Name: "hit_latency_us_p50", Unit: "us", Better: "lower", Bound: hostBound},
	{Name: "hit_latency_us_p99", Unit: "us", Better: "lower", Bound: hostBound},
}

var variantNames = []string{"retcpdyn", "tdtcp", "retcp", "dctcp", "cubic", "mptcp2f"}

// shareLayers are the layers the attribution splits a sim workload's wall
// time over (module names), in ladder order.
var shareLayers = []string{"sim", "netem", "packet", "tcp", "core", "rdcn", "workload", "trace"}

func count(name string) metricDef { return metricDef{Name: name, Unit: "count", Better: "lower"} }
func nsOp(name string) metricDef  { return metricDef{Name: name, Unit: "ns", Better: "lower"} }

// layerOnly are the single-layer metrics of the traced pass: exact-repeat
// counts, the ns/op ladder, observer overheads and the attribution shares.
// "Better" on a count says which way an optimisation would move it, not that
// the count is a goal.
var layerOnly = func() []metricDef {
	m := []metricDef{
		count("sim.events_fired"),
		{Name: "sim.events_per_sim_week", Unit: "count", Better: "lower"},
		{Name: "sim.events_per_sec", Unit: "1/s", Better: "higher"},
		count("netem.voq_enq"), count("netem.voq_drops"), count("netem.voq_marks"),
		count("rdcn.frames_sent"), count("rdcn.frames_delivered"), count("rdcn.frames_misrouted"),
		count("tcp.segs_sent"), count("tcp.segs_rcvd"), count("tcp.retransmits"),
		count("tcp.fast_retransmits"), count("tcp.rto_fires"), count("tcp.tlp_probes"),
		count("tcp.reorder_events"), count("tcp.loss_marks"), count("tcp.undos"),
		count("tcp.rtt_samples"), count("tcp.notifies_rcvd"),
		{Name: "tcp.retransmit_ratio", Unit: "ratio", Better: "lower"},
		count("core.switches"), count("core.loss_filtered"), count("core.deadman_engaged"),
		{Name: "workload.flows_started", Unit: "count", Better: "higher"},
		{Name: "workload.flows_completed", Unit: "count", Better: "higher"},
		count("fault.injected"), count("invariant.checks"),
	}
	for _, v := range variantNames {
		m = append(m, metricDef{Name: "experiments.goodput_gbps." + v, Unit: "Gbps", Better: "higher"})
	}
	m = append(m,
		count("trace.events"),
		metricDef{Name: "serve.cache_hits", Unit: "count", Better: "higher"},
		count("serve.accepted"), count("serve.retries"), count("serve.panics"),
		metricDef{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.miss_latency_ms_p90", Unit: "ms", Better: "lower"},

		nsOp("sim.heap_ns_per_event"), nsOp("sim.sharded_ns_per_event"),
		nsOp("netem.voq_ns_per_frame"), nsOp("netem.pipe_ns_per_frame"), nsOp("netem.bufpool_ns_per_getput"),
		nsOp("packet.serialize_data_ns"), nsOp("packet.parse_data_ns"),
		nsOp("packet.serialize_ack_ns"), nsOp("packet.parse_ack_ns"),
		nsOp("tcp.input_data_ns_per_seg"), nsOp("tcp.input_ack_ns_per_seg"), nsOp("tcp.input_sack_ns_per_seg"),
		nsOp("cc.cubic_onack_ns"), nsOp("cc.dctcp_onack_ns"),
		nsOp("core.notify_ns_per_switch"),
		nsOp("rdcn.forward_ns_per_frame"), nsOp("rdcn.rotor8_forward_ns_per_frame"), nsOp("rdcn.schedule_at_ns"),
		metricDef{Name: "workload.optimal_series_ms_w20", Unit: "ms", Better: "lower"},
		metricDef{Name: "workload.optimal_series_ms_w512", Unit: "ms", Better: "lower"},
		nsOp("workload.fsize_sample_ns"),
		nsOp("trace.emit_flight_ns"), nsOp("trace.emit_jsonl_ns"), nsOp("trace.hist_record_ns"),
		metricDef{Name: "experiments.run_min_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "experiments.sweep_speedup_w2", Unit: "ratio", Better: "higher"},
		metricDef{Name: "serve.spec_key_us", Unit: "us", Better: "lower"},
		metricDef{Name: "serve.submit_hit_us", Unit: "us", Better: "lower"},

		metricDef{Name: "trace.flight_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "trace.hist_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "obs.meter_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "trace.jsonl_overhead_pct", Unit: "%", Better: "lower"},
	)
	for _, l := range shareLayers {
		m = append(m, metricDef{Name: "share." + l + "_pct", Unit: "%", Better: "lower"})
	}
	return append(m, metricDef{Name: "share.unattributed_pct", Unit: "%", Better: "lower"})
}()

// perLayer is BENCHMARK.json's per_layer list: what -trace 1 prints.
var perLayer = append(append([]metricDef{}, demoted...), layerOnly...)

// findMetric looks a name up across all three tables.
func findMetric(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// metricValue is one reported number. Samples holds the per-repetition
// values the median was taken over (empty for exact or single-shot values);
// N is the sample count behind a percentile.
type metricValue struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples,omitempty"`
	N       int       `json:"n,omitempty"`
}

// metricSet collects values by name.
type metricSet struct {
	vals map[string]*metricValue
	// aux holds intermediate values the attribution needs but nobody
	// reports (events per operation of a rung).
	aux map[string]float64
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]*metricValue{}, aux: map[string]float64{}}
}

func (s *metricSet) set(name string, v float64) *metricValue {
	d, ok := findMetric(name)
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	mv := s.vals[name]
	if mv == nil {
		mv = &metricValue{Name: name, Unit: d.Unit}
		s.vals[name] = mv
	}
	mv.Value = v
	return mv
}

// setMedian records the median of per-repetition samples.
func (s *metricSet) setMedian(name string, samples []float64) {
	s.set(name, median(samples)).Samples = append([]float64(nil), samples...)
}

func (s *metricSet) get(name string) float64 {
	if mv := s.vals[name]; mv != nil {
		return mv.Value
	}
	return 0
}

// list returns the values for defs in table order, 0 for any never set (a
// metric that does not apply to this workload).
func (s *metricSet) list(defs []metricDef) []metricValue {
	out := make([]metricValue, 0, len(defs))
	for _, d := range defs {
		if mv := s.vals[d.Name]; mv != nil {
			out = append(out, *mv)
		} else {
			out = append(out, metricValue{Name: d.Name, Unit: d.Unit})
		}
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100, nearest rank) of
// samples and refuses when fewer than minBeyond samples lie beyond it: a p99
// of 200 samples is the second-largest value, which is noise, not a tail.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	beyond := float64(n) * math.Min(p, 100-p) / 100 // the thinner side decides
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %.1f samples beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// digest is the running SHA-256 a workload folds its simulated results into.
// Two runs of one (workload, seed) must produce the same digest on any
// commit that claims to leave simulated behaviour alone.
type digest struct{ b strings.Builder }

func (d *digest) add(label string, vals ...any) {
	d.b.WriteString(label)
	for _, v := range vals {
		d.b.WriteByte(' ')
		switch x := v.(type) {
		case float64:
			// all digits: a goodput that differs in the last bit is a
			// different simulation
			d.b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		default:
			fmt.Fprint(&d.b, x)
		}
	}
	d.b.WriteByte('\n')
}

func (d *digest) sum() string {
	h := sha256.Sum256([]byte(d.b.String()))
	return hex.EncodeToString(h[:])
}

// cpuTime is user+system CPU consumed by this process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
