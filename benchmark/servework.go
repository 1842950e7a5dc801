package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"github.com/rdcn-net/tdtcp/internal/serve"
)

// serve_jobs is a closed loop: serveClients clients, each with one
// keep-alive loopback connection, each sending its next job only when the
// previous one's result has been read, against one server worker.
const serveClients = 2

// serveSpecs builds n unique specs cycling the four service-default-size
// shapes; seeds start at seed*1000+offset+1 so no two specs share a cache key.
func serveSpecs(sz sizes, seed int64, n int, offset int64) []serve.Spec {
	shapes := []serve.Spec{
		{},
		{Variant: "cubic", Fault: "drop=0.01,nloss=0.1", Invariants: true},
		{Kind: serve.KindWorkload},
		{Variant: "dctcp", Racks: 4, Flows: 8},
	}
	specs := make([]serve.Spec, n)
	for i := range specs {
		specs[i] = shapes[i%len(shapes)]
		specs[i].Seed = seed*1000 + offset + int64(i) + 1
		specs[i].MeasureWeeks = sz.specWeeks
	}
	return specs
}

// jobResult is what a client learned about one job.
type jobResult struct {
	view    *serve.JobView
	disp    string
	latency time.Duration
	err     error
}

// client is one closed-loop HTTP client.
type client struct {
	http  *http.Client
	base  string
	spans *spanLog
}

// do sends one request and decodes a 2xx JSON reply into v; any other
// status is an error carrying the body.
func (c *client) do(method, url string, body []byte, v any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, strings.TrimPrefix(url, c.base), resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// job submits one spec and waits for its result: POST /jobs, then — unless
// the reply was a cache hit, which already carries the result — GET
// /jobs/{id}/result?wait=30s. Timed from the first byte sent to the result
// body read and decoded.
func (c *client) job(body []byte, parent int) jobResult {
	t0 := time.Now()
	sp := c.spans.begin("job", parent)
	defer c.spans.end(sp)
	var sub struct {
		Disposition string         `json:"disposition"`
		Job         *serve.JobView `json:"job"`
	}
	s1 := c.spans.begin("http.submit", sp)
	err := c.do("POST", c.base+"/jobs", body, &sub)
	c.spans.end(s1)
	if err == nil && sub.Job == nil {
		err = fmt.Errorf("POST /jobs: reply without a job")
	}
	if err != nil {
		return jobResult{latency: time.Since(t0), err: err}
	}
	if sub.Disposition == serve.DispCacheHit && sub.Job.Outcome != nil {
		return jobResult{view: sub.Job, disp: sub.Disposition, latency: time.Since(t0)}
	}
	var view serve.JobView
	s2 := c.spans.begin("http.result_wait", sp)
	err = c.do("GET", c.base+"/jobs/"+sub.Job.ID+"/result?wait=30s", nil, &view)
	c.spans.end(s2)
	return jobResult{view: &view, disp: sub.Disposition, latency: time.Since(t0), err: err}
}

// serveOut is the outcome of one repetition of serve_jobs.
type serveOut struct {
	ops, failed       int
	weeks             int
	goodputGbps       float64
	digest            string
	missMs, hitUs     []float64 // one latency per attempted job, failed ones included
	missWall, hitWall time.Duration
	outcomes          []*serve.Outcome // by spec, from the miss phase
	server            map[string]float64
	notes             []string
}

func (o *serveOut) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 8 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// serveRep runs one repetition: a fresh server (empty cache) behind a
// loopback HTTP listener, phase miss (every spec once), phase hit (the same
// specs replayed hitPerClient times per client). runner nil means the real
// simulations; tests pass stubs.
func serveRep(sz sizes, specs []serve.Spec, runner serve.Runner, spans *spanLog, parent int) serveOut {
	srv := serve.New(serve.Config{Workers: 1, CacheCap: 4096, QueueDepth: 64, Runner: runner})
	ts := httptest.NewServer(serve.Handler(srv))
	defer func() {
		ts.Close()
		_ = srv.Shutdown(10 * time.Second) // every job was waited for: nothing left to drain
	}()
	bodies := make([][]byte, len(specs))
	for i := range specs {
		bodies[i], _ = json.Marshal(&specs[i]) // plain scalars: cannot fail
	}
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = &client{base: ts.URL, spans: spans,
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
		defer clients[i].http.CloseIdleConnections()
	}

	out := serveOut{outcomes: make([]*serve.Outcome, len(specs))}
	// phase runs perClient jobs on every client, client c walking specs c,
	// c+2, ... cyclically, and returns every job's result in a fixed order.
	phase := func(name string, perClient int) ([]jobResult, []int, time.Duration) {
		results := make([]jobResult, serveClients*perClient)
		index := make([]int, len(results))
		ph := spans.begin("phase."+name, parent)
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < perClient; k++ {
					i := (c + k*serveClients) % len(specs)
					results[c*perClient+k] = clients[c].job(bodies[i], ph)
					index[c*perClient+k] = i
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(t0)
		spans.end(ph)
		return results, index, wall
	}
	// check applies the per-job failure rules; every job counts as attempted
	// and contributes its latency whether or not it failed.
	check := func(r jobResult, what string) bool {
		out.ops++
		switch {
		case r.err != nil:
			out.fail("%s: %v", what, r.err)
		case r.view.State != serve.StateDone:
			out.fail("%s: job %s ended %s: %s%s", what, r.view.ID, r.view.State, r.view.Error, r.view.Panic)
		case r.view.Outcome == nil:
			out.fail("%s: job %s done without an outcome", what, r.view.ID)
		case r.view.Outcome.InvariantViolations > 0:
			out.fail("%s: job %s: %d invariant violations", what, r.view.ID, r.view.Outcome.InvariantViolations)
		default:
			return true
		}
		return false
	}

	perClient := (len(specs) + serveClients - 1) / serveClients
	miss, idx, wall := phase("miss", perClient)
	out.missWall = wall
	var d digest
	var goodput float64
	good := 0
	for k, r := range miss {
		out.missMs = append(out.missMs, float64(r.latency.Microseconds())/1e3)
		if !check(r, "miss") {
			continue
		}
		oc := r.view.Outcome
		out.outcomes[idx[k]] = oc
		out.weeks += r.view.Spec.WarmupWeeks + r.view.Spec.MeasureWeeks
		goodput += oc.GoodputGbps
		good++
	}
	for i, oc := range out.outcomes {
		if oc != nil {
			d.add("job", i, oc.Kind, oc.Variant, oc.GoodputGbps, oc.Retransmits, oc.TDTCPSwitches,
				oc.FlowsStarted, oc.FlowsCompleted, oc.BytesOffered, oc.MedianFCTUs, oc.InvariantChecks)
		}
	}
	out.digest = d.sum()
	if good > 0 {
		out.goodputGbps = goodput / float64(good)
	}

	hit, _, wall := phase("hit", sz.hitPerClient)
	out.hitWall = wall
	for _, r := range hit {
		out.hitUs = append(out.hitUs, float64(r.latency.Nanoseconds())/1e3)
		if check(r, "hit") && r.disp != serve.DispCacheHit {
			out.fail("hit: job %s was %s, not served from the cache", r.view.ID, r.disp)
		}
	}

	m := srv.Metrics()
	out.server = map[string]float64{
		"serve.cache_hits":        float64(m.Counter("serve.cache_hits")),
		"serve.accepted":          float64(m.Counter("serve.accepted")),
		"serve.retries":           float64(m.Counter("serve.retries")),
		"serve.panics":            float64(m.Counter("serve.panics")),
		"serve.queue_wait_ms_p50": float64(m.Hist("serve.queue_wait_ns").Quantile(0.5)) / 1e6,
		"serve.run_ms_p50":        float64(m.Hist("serve.run_ns").Quantile(0.5)) / 1e6,
	}
	return out
}

// registryCounters are the outcome-metrics counters (the per-job
// trace.Registry dump every result carries) that map one-to-one onto a
// per-layer count.
var registryCounters = map[string]string{
	"sim.events_fired":         "sim.events_fired",
	"tcp.segs_sent":            "tcp.segs_sent",
	"tcp.segs_rcvd":            "tcp.segs_rcvd",
	"tcp.retransmits":          "tcp.retransmits",
	"tcp.fast_retransmits":     "tcp.fast_retransmits",
	"tcp.rto_fires":            "tcp.rto_fires",
	"tcp.tlp_probes":           "tcp.tlp_probes",
	"tcp.reorder_events":       "tcp.reorder_events",
	"tcp.loss_marks":           "tcp.loss_marks",
	"tcp.undos":                "tcp.undos",
	"tcp.rtt_samples":          "tcp.rtt_samples",
	"tcp.notifies_rcvd":        "tcp.notifies_rcvd",
	"tcp.loss_filtered":        "core.loss_filtered",
	"tdtcp.switches":           "core.switches",
	"tdtcp.deadman_engaged":    "core.deadman_engaged",
	"workload.flows_started":   "workload.flows_started",
	"workload.flows_completed": "workload.flows_completed",
	"invariant.checks":         "invariant.checks",
}

// serveCounts sums the per-job registry dumps into the count metrics.
func serveCounts(outcomes []*serve.Outcome) map[string]float64 {
	c := map[string]float64{}
	goodput, n := map[string]float64{}, map[string]float64{}
	for _, oc := range outcomes {
		if oc == nil {
			continue
		}
		goodput[oc.Variant] += oc.GoodputGbps
		n[oc.Variant]++
		var dump struct {
			Counters map[string]int64 `json:"counters"`
		}
		if json.Unmarshal(oc.Metrics, &dump) != nil {
			continue
		}
		for k, v := range dump.Counters {
			switch {
			case registryCounters[k] != "":
				c[registryCounters[k]] += float64(v)
			case strings.HasPrefix(k, "fault."):
				c["fault.injected"] += float64(v)
			case strings.HasPrefix(k, "voq.") && strings.HasSuffix(k, ".enq"):
				c["netem.voq_enq"] += float64(v)
			case strings.HasPrefix(k, "voq.") && strings.HasSuffix(k, ".drops"):
				c["netem.voq_drops"] += float64(v)
			case strings.HasPrefix(k, "voq.") && strings.HasSuffix(k, ".marks"):
				c["netem.voq_marks"] += float64(v)
			}
		}
	}
	for v, sum := range goodput {
		c["experiments.goodput_gbps."+v] = sum / n[v]
	}
	return c
}

// runServeWorkload drives serve_jobs.
func runServeWorkload(o options, stderr io.Writer) (*workloadResult, error) {
	sz := o.sizes()
	res := &workloadResult{Workload: "serve_jobs"}
	ms := newMetricSet()
	warm := serveSpecs(sz, o.seed, sz.warmupJobs, 900_000)
	var setupErr error
	setupS := measureSetup(sz, func() {
		// The warm-up: a server, 20 jobs on seeds no repetition uses, no
		// replay.
		wsz := sz
		wsz.hitPerClient = 0
		if out := serveRep(wsz, warm, nil, nil, 0); out.failed > 0 {
			setupErr = fmt.Errorf("%d of %d warm-up jobs failed: %v", out.failed, out.ops, out.notes)
		}
	})
	if setupErr != nil {
		return nil, setupErr
	}
	specs := serveSpecs(sz, o.seed, serveClients*sz.missPerClient, 0)
	if o.traced {
		return tracedServe(o, specs, res, ms)
	}

	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var host hostSamples
	var digests []string
	var last serveOut
	res.Reps = repeat(o, func() time.Duration {
		c := timed(func() { last = serveRep(sz, specs, nil, nil, 0) })
		host.add(c, last.weeks)
		res.recordServe(&last, add, sz)
		digests = append(digests, last.digest)
		fmt.Fprintf(stderr, "benchmark: serve_jobs repetition %d: %.3fs (miss %.3fs, hit %.3fs)\n",
			len(digests), c.wall.Seconds(), last.missWall.Seconds(), last.hitWall.Seconds())
		return c.wall
	})
	if n := digestMismatches(digests); n > 0 {
		res.Failed += n
		res.Notes = append(res.Notes, fmt.Sprintf("%d repetitions disagree with the first one's digest", n))
	}
	res.Digest = digests[0]
	ms.set("setup_s", setupS)
	for name, s := range samples {
		ms.setMedian(name, s)
	}
	last.sampleCounts(ms)
	ms.set("sim_goodput_gbps", last.goodputGbps)
	host.record(ms)
	res.finish(ms, untracedDefs)
	return res, nil
}

// recordServe folds one repetition's job accounting and latency statistics
// into the result. A percentile the sample cannot support fails the run,
// except at smoke size where it is only noted.
func (r *workloadResult) recordServe(out *serveOut, add func(string, float64), sz sizes) {
	r.Attempted += out.ops
	r.Failed += out.failed
	r.Notes = append(r.Notes, out.notes...)
	pct := func(name string, samples []float64, p float64) {
		v, err := percentile(samples, p)
		if err != nil {
			r.Notes = append(r.Notes, name+": "+err.Error())
			if !sz.smoke {
				r.Failed++
			}
		}
		add(name, v)
	}
	add("miss_jobs_per_sec", float64(len(out.missMs))/out.missWall.Seconds())
	add("hit_jobs_per_sec", float64(len(out.hitUs))/out.hitWall.Seconds())
	pct("miss_latency_ms_p50", out.missMs, 50)
	pct("serve.miss_latency_ms_p90", out.missMs, 90)
	pct("hit_latency_us_p50", out.hitUs, 50)
	pct("hit_latency_us_p99", out.hitUs, 99)
}

// sampleCounts attaches to each reported percentile the number of latency
// samples behind it.
func (out *serveOut) sampleCounts(ms *metricSet) {
	for _, name := range []string{"miss_latency_ms_p50", "serve.miss_latency_ms_p90"} {
		ms.vals[name].N = len(out.missMs)
	}
	for _, name := range []string{"hit_latency_us_p50", "hit_latency_us_p99"} {
		ms.vals[name].N = len(out.hitUs)
	}
}

// tracedServe is the traced pass of serve_jobs: one repetition as measured,
// one with a span around every job and HTTP exchange, the server's own
// queue-wait and run histograms alongside, counts summed from the registry
// dump each result carries, then the ladder and overhead pairs. No tracer
// can be attached through HTTP, so trace.events is 0 and the attribution
// (share.*) is not computed here.
func tracedServe(o options, specs []serve.Spec, res *workloadResult, ms *metricSet) (*workloadResult, error) {
	sz := o.sizes()
	var base, obs serveOut
	cu := timed(func() { base = serveRep(sz, specs, nil, nil, 0) })
	spans := newSpanLog()
	rep := spans.begin("rep", 0)
	ct := timed(func() { obs = serveRep(sz, specs, nil, spans, rep) })
	spans.end(rep)

	res.Reps = 2
	res.Digest = base.digest
	if obs.digest != base.digest {
		res.Failed++
		res.Notes = append(res.Notes, "the observed repetition's digest differs from the unobserved one's")
	}
	one := map[string]float64{}
	res.recordServe(&base, func(name string, v float64) { one[name] = v }, sz)
	res.Attempted += obs.ops
	res.Failed += obs.failed
	res.Notes = append(res.Notes, obs.notes...)
	for name, v := range one {
		ms.set(name, v)
	}
	base.sampleCounts(ms)
	for name, v := range base.server {
		ms.set(name, v)
	}
	counts := serveCounts(base.outcomes)
	for name, v := range counts {
		ms.set(name, v)
	}
	weeks, wall := float64(max(base.weeks, 1)), cu.wall.Seconds()
	ms.set("sim.events_per_sim_week", counts["sim.events_fired"]/weeks)
	ms.set("sim.events_per_sec", counts["sim.events_fired"]/base.missWall.Seconds())
	if d := counts["tcp.segs_sent"]; d > 0 {
		ms.set("tcp.retransmit_ratio", counts["tcp.retransmits"]/d)
	}
	ms.set("trace.jsonl_overhead_pct", (ct.wall.Seconds()-wall)/wall*100)
	runLadder(sz, ms)
	runOverheads(sz, ms)
	if err := spans.write(o); err != nil {
		return nil, err
	}
	res.finish(ms, perLayer)
	return res, nil
}
