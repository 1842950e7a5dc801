package serve

import (
	"encoding/json"
	"errors"
	"io"
	"regexp"
	"sort"
	"testing"
	"time"

	"github.com/rdcn-net/tdtcp/internal/experiments"
	"github.com/rdcn-net/tdtcp/internal/obs"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// metricNameRe is the metric naming convention: a package-ish prefix, then
// dot-separated snake_case segments, so dashboards can group by prefix.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z0-9_]+)+$`)

// TestMetricNamesFollowConvention collects every name the program registers
// on the paths users run and checks each against the convention:
//   - a traced, metered, faulted and invariant-checked Run, and a faulted
//     retcpdyn one;
//   - an open-loop RunWorkload;
//   - a tdserve job, from both the server's registry and the job's, with a
//     cache hit, an invalid spec and a submission while draining beside it;
//   - a server whose runner misbehaves on cue, for the failure paths: a
//     panic, a deadline, a deduplicated and a cancelled submission, a full
//     queue and a cache eviction.
//
// A name on a path none of these takes is not covered.
func TestMetricNamesFollowConvention(t *testing.T) {
	names := map[string]string{} // name -> the source that registered it
	collect := func(src string, dump []byte) {
		t.Helper()
		var sections map[string]map[string]json.RawMessage
		if err := json.Unmarshal(dump, &sections); err != nil {
			t.Fatalf("%s: registry dump is not JSON: %v", src, err)
		}
		for _, sec := range sections {
			for name := range sec {
				names[name] = src
			}
		}
	}

	// retcpdyn is the one variant whose VOQ resizes can fail.
	for _, spec := range []*Spec{
		{Variant: "tdtcp", Flows: 4, WarmupWeeks: 1, MeasureWeeks: 8, Invariants: true,
			Fault: "drop=0.01,corrupt=0.01,reorder=0.01,nloss=0.1,ndelay=20us,ndup=0.1,flaps=2,drift=7us"},
		{Variant: "retcpdyn", Flows: 2, WarmupWeeks: 1, MeasureWeeks: 2, Fault: "resizefail=1"},
	} {
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		cfg := norm.runConfig()
		cfg.Metrics = trace.NewRegistry()
		cfg.Tracer = trace.New(io.Discard, trace.CatAll)
		cfg.Meter = obs.NewMeter()
		if _, err := experiments.Run(cfg); err != nil {
			t.Fatal(err)
		}
		collect("Run "+spec.Variant, registryJSON(cfg.Metrics))
	}

	wreg := trace.NewRegistry()
	if _, err := experiments.RunWorkload(experiments.WorkloadConfig{Variant: experiments.TDTCP,
		Scenario: experiments.MultiRack(4), WarmupWeeks: 1, MeasureWeeks: 4, Metrics: wreg}); err != nil {
		t.Fatal(err)
	}
	collect("RunWorkload", registryJSON(wreg))

	s := New(Config{Workers: 1})
	j, _, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if _, disp, err := s.Submit(tinySpec()); err != nil || disp != DispCacheHit {
		t.Fatalf("resubmission: disp %q, err %v; want a cache hit", disp, err)
	}
	if _, _, err := s.Submit(&Spec{Variant: "quic"}); err == nil {
		t.Fatal("an invalid spec was admitted")
	}
	collect("tdserve job", s.View(j, true).Outcome.Metrics)
	shutdownOrFail(t, s)
	if _, _, err := s.Submit(tinySpec()); err != ErrDraining {
		t.Fatalf("submission while draining: err %v, want ErrDraining", err)
	}
	collect("tdserve server", registryJSON(s.Metrics()))

	gate := make(chan struct{})
	f := New(Config{Workers: 1, QueueDepth: 1, CacheCap: 1, Runner: func(req *Request) (*Outcome, error) {
		switch req.Spec.Seed {
		case 1:
			panic("on cue")
		case 2:
			return slowRunner(req)
		case 3:
			return gateRunner(gate)(req)
		}
		return okRunner(req)
	}})
	for _, spec := range []*Spec{{Seed: 1}, {Seed: 2, DeadlineMS: 20}, {Seed: 4}, {Seed: 5}} {
		j, _, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}
	held, _, err := f.Submit(&Spec{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); f.View(held, false).State != StateRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held job never started")
		}
	}
	if _, disp, err := f.Submit(&Spec{Seed: 3}); err != nil || disp != DispJoined {
		t.Fatalf("identical submission: disp %q, err %v; want joined", disp, err)
	}
	queued, _, err := f.Submit(&Spec{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Submit(&Spec{Seed: 7}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission past the queue: err %v, want ErrQueueFull", err)
	}
	f.Cancel(queued.ID)
	close(gate)
	shutdownOrFail(t, f)
	collect("tdserve failures", registryJSON(f.Metrics()))

	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		if !metricNameRe.MatchString(name) {
			t.Errorf("%s registers %q, which is not pkg.snake_case", names[name], name)
		}
	}
	// Every source contributed, and so did the dynamic families (per-flow,
	// per-rack and per-fault-kind names) and the conditional counters.
	for _, want := range []string{"sim.events_fired", "workload.flows_started", "flow.00.bytes_delivered",
		"voq.r0.enq", "fault.notify_dropped", "fault.resize_failures", "invariant.checks", "trace.events",
		"serve.cache_hits", "serve.rejected_invalid", "serve.rejected_draining", "serve.panics",
		"serve.deadlines_exceeded", "serve.dedup_joined", "serve.rejected_queue_full",
		"serve.jobs_cancelled", "serve.cache_evictions"} {
		if _, ok := names[want]; !ok {
			t.Errorf("no source registered %q; %d names collected", want, len(names))
		}
	}
}
