package main

import (
	"bytes"
	"fmt"
	"io"

	"github.com/rdcn-net/tdtcp/internal/experiments"
	"github.com/rdcn-net/tdtcp/internal/obs"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
	"github.com/rdcn-net/tdtcp/internal/workload"
)

// sizes fixes how much work one repetition does. full is what the issue
// names and what every tracked number is taken at; smoke is small enough for
// `go test -race` and exists only to exercise the code paths.
type sizes struct {
	smoke                       bool
	longWeeks                   int // measured weeks of hybrid_tdtcp_long
	sweepSeeds, sweepWeeks      int
	rotorWeeks, rotorMaxFlows   int
	missPerClient, hitPerClient int // serve_jobs, per client (2 clients)
	warmupJobs                  int
	specWeeks                   int // measure_weeks of every serve spec (0 = service default)
	figWarmup, figWeeks         int // warm-up and measured weeks of the figure-size run
	// The sanity bands. optimalSlack is how far a window's goodput may exceed
	// the analytic optimum before it counts as an accounting error: bytes
	// queued or in flight when the window opens are delivered inside it,
	// which on a 20-week window has been seen to add 0.3 % (and on smoke's
	// 2-week windows 30 %). minCompleted is the share of started flows the
	// rotor workload must complete before its horizon.
	optimalSlack, minCompleted float64
}

var (
	fullSizes = sizes{longWeeks: 512, sweepSeeds: 40, sweepWeeks: 20,
		rotorWeeks: 60, rotorMaxFlows: 8192,
		missPerClient: 400, hitPerClient: 8000, warmupJobs: 20, figWarmup: 3, figWeeks: 20,
		optimalSlack: 1.02, minCompleted: 0.9}
	smokeSizes = sizes{smoke: true, longWeeks: 4, sweepSeeds: 2, sweepWeeks: 2,
		rotorWeeks: 3, rotorMaxFlows: 8192,
		missPerClient: 10, hitPerClient: 50, warmupJobs: 2, specWeeks: 1, figWarmup: 1, figWeeks: 2,
		optimalSlack: 2, minCompleted: 0.5}
)

// figureRun is the figure-size TDTCP run (3 warm-up + 20 measured weeks, 16
// flows, Hybrid): the warm-up of every sim workload, the unit of the sweep,
// and the subject of the overhead pairs.
func figureRun(sz sizes, seed int64) experiments.RunConfig {
	return experiments.RunConfig{
		Variant: experiments.TDTCP, Scenario: experiments.Hybrid(), Flows: 16,
		WarmupWeeks: sz.figWarmup, MeasureWeeks: sz.figWeeks, Seed: seed, Shards: 1,
	}
}

// observation is what the traced pass attaches to a repetition: a JSONL
// tracer per run (everything but the per-event sim category, encoded and
// handed to a writer that only counts), one metrics registry, one meter.
// The determinism-of-observation test shows that attaching all three leaves
// the result digest and the event count unchanged, which is what entitles
// the counts of a traced pass to describe the untraced one.
type observation struct {
	reg     *trace.Registry
	meter   *obs.Meter
	names   *nameCounter
	tracers []*trace.Tracer
	// spans, when non-nil, receives a span around each call into the
	// program, as children of parent.
	spans  *spanLog
	parent int
	// after holds work a repetition wants done once its timing has stopped
	// (re-timing a call costs as much as the call).
	after []func()
}

func newObservation() *observation {
	return &observation{reg: trace.NewRegistry(), meter: obs.NewMeter(), names: newNameCounter()}
}

// begin opens a span under the observation's parent; nil-safe, so the
// untraced path calls it unconditionally.
func (o *observation) begin(name string) int {
	if o == nil {
		return 0
	}
	return o.spans.begin(name, o.parent)
}

func (o *observation) end(id int) {
	if o != nil {
		o.spans.end(id)
	}
}

// tracer returns a fresh tracer for one run (runs must not share one: each
// adds its own Count to the registry's trace.events), or nil when this
// observation does not trace.
func (o *observation) tracer() *trace.Tracer {
	if o.names == nil {
		return nil
	}
	t := trace.New(o.names, trace.CatAll&^trace.CatSim)
	o.tracers = append(o.tracers, t)
	return t
}

// nameCounter is an io.Writer that counts JSONL trace events by name and by
// category without keeping them. Lines arrive whole (the tracer writes one
// event, or one merged barrier batch, per call).
type nameCounter struct {
	byName, byCat map[string]*int64
}

func newNameCounter() *nameCounter {
	return &nameCounter{byName: map[string]*int64{}, byCat: map[string]*int64{}}
}

func (c *nameCounter) name(n string) float64 {
	if c == nil {
		return 0
	}
	if p := c.byName[n]; p != nil {
		return float64(*p)
	}
	return 0
}

var (
	catKey  = []byte(`"cat":"`)
	nameKey = []byte(`"name":"`)
)

func (c *nameCounter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		line := p
		if i := bytes.IndexByte(p, '\n'); i >= 0 {
			line, p = p[:i], p[i+1:]
		} else {
			p = nil
		}
		c.bump(c.byCat, line, catKey)
		c.bump(c.byName, line, nameKey)
	}
	return n, nil
}

func (c *nameCounter) bump(m map[string]*int64, line, key []byte) {
	i := bytes.Index(line, key)
	if i < 0 {
		return
	}
	rest := line[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return
	}
	// Pointer values so the steady state is a read-only lookup, which Go
	// performs on the converted []byte without allocating a string.
	if p := m[string(rest[:j])]; p != nil {
		*p++
		return
	}
	one := int64(1)
	m[string(rest[:j])] = &one
}

var _ io.Writer = (*nameCounter)(nil)

// cellSpans opens one span per sweep cell (sequential sweep: no locking).
type cellSpans struct {
	log    *spanLog
	parent int
	open   int
}

func (c *cellSpans) CellStart(worker, cell int)           { c.open = c.log.begin("experiments.Run", c.parent) }
func (c *cellSpans) CellDone(worker, cell int, err error) { c.log.end(c.open) }

// cellObserver returns the sweep observer of a traced pass, or nil (plain
// Sweep) when nothing records spans.
func (o *observation) cellObserver(parent int) experiments.SweepObserver {
	if o == nil || o.spans == nil {
		return nil
	}
	return &cellSpans{log: o.spans, parent: parent}
}

// simOut is the outcome of one repetition of a sim workload.
type simOut struct {
	ops, failed int
	weeks       int // simulated weeks, warm-up included
	goodputGbps float64
	fctP99Us    float64
	fctN        int
	digest      string
	counts      map[string]float64 // traced pass only
	notes       []string
}

func (o *simOut) fail(format string, args ...any) {
	o.failed++
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// simWorkload is one of the three simulation workloads: run performs one
// repetition of fixed work through the public experiments entry points.
type simWorkload struct {
	name string
	run  func(sz sizes, seed int64, ob *observation) simOut
}

var simWorkloads = []simWorkload{
	{"hybrid_tdtcp_long", runLong},
	{"hybrid_variants_sweep", runSweep},
	{"rotor_websearch", runRotor},
}

// digestResult folds everything simulated about one Run into d.
func digestResult(d *digest, r *experiments.Result) {
	d.add("goodput", r.GoodputGbps)
	d.add("frames", r.FramesSent, r.FramesDelivered, r.FramesMisrouted)
	d.add("sender", fmt.Sprintf("%+v", r.Sender))
	d.add("receiver", fmt.Sprintf("%+v", r.Receiver))
	d.add("tdtcp", r.TDTCPSwitches, r.DeadmanEngaged)
}

// runCounts turns the registry and name counter of a traced pass into the
// count metrics. snd and rcv are the summed endpoint stats where the entry
// point exports them (Run does; RunWorkload does not, see README).
func (ob *observation) runCounts(snd, rcv *tcp.Stats, framesSent, framesDelivered, framesMisrouted uint64) map[string]float64 {
	c := map[string]float64{
		"rdcn.frames_sent":      float64(framesSent),
		"rdcn.frames_delivered": float64(framesDelivered),
		"rdcn.frames_misrouted": float64(framesMisrouted),
	}
	ev := ob.names.name
	c["sim.events_fired"] = float64(ob.reg.Counter("sim.events_fired"))
	c["netem.voq_enq"] = ev("voq_enq")
	c["netem.voq_drops"] = ev("voq_drop")
	c["netem.voq_marks"] = ev("voq_mark")
	c["tcp.retransmits"] = ev("retransmit")
	c["tcp.rto_fires"] = ev("rto_fire")
	c["tcp.tlp_probes"] = ev("tlp")
	c["tcp.reorder_events"] = ev("reorder")
	c["tcp.loss_marks"] = ev("loss_mark")
	c["core.loss_filtered"] = ev("loss_filtered")
	c["core.switches"] = ev("tdn_switch")
	c["core.deadman_engaged"] = ev("tdn_deadman")
	c["workload.flows_started"] = float64(ob.reg.Counter("workload.flows_started"))
	c["workload.flows_completed"] = float64(ob.reg.Counter("workload.flows_completed"))
	for _, t := range ob.tracers {
		c["trace.events"] += float64(t.Count())
	}
	// What the default flight recorder would have been handed: the traced
	// events in its categories (attribution input, not a reported metric).
	if ob.names != nil {
		for cat, n := range ob.names.byCat {
			if cat != "cc" {
				c["flight.events"] += float64(*n)
			}
		}
	}
	if snd != nil {
		// As in the run registry: the sending endpoints' view, so sent is
		// (almost all) data segments and rcvd the ACKs that came back.
		c["tcp.segs_sent"] = float64(snd.SegsSent)
		c["tcp.segs_rcvd"] = float64(snd.SegsRcvd)
		c["tcp.data_segs"] = float64(snd.SegsSent)
		c["tcp.ack_segs"] = float64(rcv.SegsSent)
		c["tcp.fast_retransmits"] = float64(snd.FastRetransmits)
		c["tcp.undos"] = float64(snd.Undos)
		c["tcp.rtt_samples"] = float64(snd.RTTSamples)
		c["tcp.notifies_rcvd"] = float64(snd.NotifiesRcvd + rcv.NotifiesRcvd)
	}
	return c
}

func addStats(dst *tcp.Stats, src tcp.Stats) {
	dst.SegsSent += src.SegsSent
	dst.SegsRcvd += src.SegsRcvd
	dst.FastRetransmits += src.FastRetransmits
	dst.Undos += src.Undos
	dst.RTTSamples += src.RTTSamples
	dst.NotifiesRcvd += src.NotifiesRcvd
}

// checkRun applies the per-operation failure rules to one Run outcome.
func checkRun(sz sizes, out *simOut, what string, r *experiments.Result, err error) bool {
	switch {
	case err != nil:
		out.fail("%s: %v", what, err)
	case len(r.Violations) > 0:
		out.fail("%s: %d invariant violations", what, len(r.Violations))
	case r.GoodputGbps > r.OptimalGbps*sz.optimalSlack:
		out.fail("%s: goodput %.3f Gbps above optimal %.3f", what, r.GoodputGbps, r.OptimalGbps)
	default:
		return true
	}
	return false
}

// runLong is hybrid_tdtcp_long: the README's documented long TDTCP run.
func runLong(sz sizes, seed int64, ob *observation) simOut {
	cfg := figureRun(sz, seed*1000+1)
	cfg.MeasureWeeks = sz.longWeeks
	if ob != nil {
		cfg.Tracer, cfg.Metrics, cfg.Meter = ob.tracer(), ob.reg, ob.meter
	}
	out := simOut{ops: 1, weeks: cfg.WarmupWeeks + cfg.MeasureWeeks}
	sp := ob.begin("experiments.Run")
	res, err := experiments.Run(cfg)
	ob.end(sp)
	if !checkRun(sz, &out, "run", res, err) {
		return out
	}
	var d digest
	digestResult(&d, res)
	out.digest = d.sum()
	out.goodputGbps = res.GoodputGbps
	if ob != nil {
		out.counts = ob.runCounts(&res.Sender, &res.Receiver, res.FramesSent, res.FramesDelivered, res.FramesMisrouted)
		out.counts["experiments.goodput_gbps.tdtcp"] = res.GoodputGbps
		out.counts["experiments.runs"] = 1
		// The program has no spans of its own yet, so the one call inside Run
		// known to matter is timed again with Run's exact arguments.
		counts := out.counts
		ob.after = append(ob.after, func() {
			d := timeOptimalSeries(cfg)
			ob.spans.retimed("workload.OptimalSeries", sp, d)
			counts["workload.optimal_series_ms_w512"] = float64(d.Microseconds()) / 1e3
		})
	}
	return out
}

// runSweep is hybrid_variants_sweep: the tdsim -fig / -sweep traffic, every
// variant of the Fig. 7 legend over many seeds at figure size.
func runSweep(sz sizes, seed int64, ob *observation) simOut {
	base := figureRun(sz, 0)
	base.MeasureWeeks = sz.sweepWeeks
	seeds := make([]int64, sz.sweepSeeds)
	for i := range seeds {
		seeds[i] = seed*1000 + int64(i) + 1
	}
	cfgs := experiments.Matrix(base, experiments.AllVariants, seeds)
	if ob != nil {
		for i := range cfgs {
			// workers=1: the runs are sequential, so one registry may sum them
			cfgs[i].Tracer, cfgs[i].Metrics, cfgs[i].Meter = ob.tracer(), ob.reg, ob.meter
		}
	}
	out := simOut{ops: len(cfgs), weeks: len(cfgs) * (base.WarmupWeeks + base.MeasureWeeks)}
	sp := ob.begin("experiments.Sweep")
	// Sweep is SweepWithObserver(nil); the traced pass passes a cell observer
	// so each of the runs gets its own span.
	results := experiments.SweepWithObserver(cfgs, 1, ob.cellObserver(sp))
	ob.end(sp)

	var d digest
	var snd, rcv tcp.Stats
	var sent, delivered, misrouted uint64
	sum := map[experiments.Variant]float64{}
	for i, r := range results {
		what := fmt.Sprintf("%s seed %d", r.Cfg.Variant, r.Cfg.Seed)
		if !checkRun(sz, &out, what, r.Res, r.Err) {
			continue
		}
		d.add("cell", i)
		digestResult(&d, r.Res)
		sum[r.Cfg.Variant] += r.Res.GoodputGbps
		addStats(&snd, r.Res.Sender)
		addStats(&rcv, r.Res.Receiver)
		sent += r.Res.FramesSent
		delivered += r.Res.FramesDelivered
		misrouted += r.Res.FramesMisrouted
	}
	out.digest = d.sum()
	mean := func(v experiments.Variant) float64 { return sum[v] / float64(len(seeds)) }
	out.goodputGbps = mean(experiments.TDTCP)
	if out.failed == 0 && mean(experiments.TDTCP) <= mean(experiments.Cubic) {
		out.fail("mean TDTCP goodput %.3f Gbps not above mean CUBIC %.3f",
			mean(experiments.TDTCP), mean(experiments.Cubic))
	}
	if ob != nil {
		out.counts = ob.runCounts(&snd, &rcv, sent, delivered, misrouted)
		for _, v := range experiments.AllVariants {
			out.counts["experiments.goodput_gbps."+string(v)] = mean(v)
		}
		out.counts["experiments.runs"] = float64(len(cfgs))
	}
	return out
}

// runRotor is rotor_websearch: open-loop web-search flows on the 8-rack
// rotor fabric.
func runRotor(sz sizes, seed int64, ob *observation) simOut {
	const racks = 8
	cfg := experiments.WorkloadConfig{
		Variant: experiments.TDTCP, Scenario: experiments.MultiRack(racks), Hosts: 4,
		Dist: workload.WebSearch(), Load: 0.4, WarmupWeeks: 1, MeasureWeeks: sz.rotorWeeks,
		MaxFlows: sz.rotorMaxFlows, Seed: seed*1000 + 1, Shards: 1,
	}
	if ob != nil {
		cfg.Tracer, cfg.Metrics, cfg.Meter = ob.tracer(), ob.reg, ob.meter
	}
	out := simOut{ops: 1, weeks: cfg.WarmupWeeks + cfg.MeasureWeeks}
	sp := ob.begin("experiments.RunWorkload")
	res, err := experiments.RunWorkload(cfg)
	ob.end(sp)
	if err != nil {
		out.fail("run: %v", err)
		return out
	}
	capacity := workload.OptimalGbps(cfg.Scenario.Schedule, cfg.Scenario.TDNs) * racks
	switch {
	case res.GoodputGbps > capacity*sz.optimalSlack:
		out.fail("goodput %.3f Gbps above fabric capacity %.3f", res.GoodputGbps, capacity)
	case float64(res.FlowsCompleted) < sz.minCompleted*float64(res.FlowsStarted):
		out.fail("only %d of %d flows completed", res.FlowsCompleted, res.FlowsStarted)
	case res.FlowsStarted >= cfg.MaxFlows:
		out.fail("arrival cap %d hit: the offered load is not what the workload says", cfg.MaxFlows)
	}
	fct := res.FCT.CDF("all").Series("").T // sorted completion times, µs
	var d digest
	d.add("goodput", res.GoodputGbps, res.MeanVOQ)
	d.add("frames", res.FramesSent, res.FramesDelivered, res.FramesMisrouted)
	d.add("flows", res.FlowsStarted, res.FlowsCompleted, res.BytesOffered)
	d.add("fct", len(fct))
	for _, v := range fct {
		d.add("", v)
	}
	out.digest = d.sum()
	out.goodputGbps = res.GoodputGbps
	out.fctN = len(fct)
	if p99, err := percentile(fct, 99); err == nil {
		out.fctP99Us = p99
	} else if sz.smoke {
		out.notes = append(out.notes, "sim_fct_p99_us not reported at smoke size: "+err.Error())
	} else {
		out.fail("sim_fct_p99_us: %v", err)
	}
	if ob != nil {
		out.counts = ob.runCounts(nil, nil, res.FramesSent, res.FramesDelivered, res.FramesMisrouted)
		// RunWorkload exports no endpoint counters, so tcp.segs_* and the
		// other Stats-only counts read 0 here. Every segment is one frame;
		// the attribution assumes one ACK per data segment.
		out.counts["tcp.data_segs"] = float64(res.FramesSent) / 2
		out.counts["tcp.ack_segs"] = float64(res.FramesSent) / 2
		for k := 0; k < len(cfg.Scenario.TDNs); k++ {
			out.counts["tcp.rtt_samples"] += float64(ob.reg.Hist(fmt.Sprintf("tcp.rtt_tdn%d_ns", k)).Count())
		}
		out.counts["experiments.goodput_gbps.tdtcp"] = res.GoodputGbps
	}
	return out
}
