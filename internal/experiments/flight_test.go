package experiments

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/invariant"
	"github.com/rdcn-net/tdtcp/internal/obs"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// TestRunHasFlightRecorderByDefault: every Run carries a recorder without any
// configuration, and the ring is non-empty afterwards even with JSONL
// tracing off entirely.
func TestRunHasFlightRecorderByDefault(t *testing.T) {
	res, err := Run(RunConfig{Variant: TDTCP, Flows: 2, WarmupWeeks: 1, MeasureWeeks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flight == nil {
		t.Fatal("Run returned no flight recorder")
	}
	if res.Flight.Len() == 0 {
		t.Fatal("flight recorder ring is empty after a full run")
	}
	off, err := Run(RunConfig{Variant: TDTCP, Flows: 2, WarmupWeeks: 1, MeasureWeeks: 1, DisableFlight: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Flight != nil {
		t.Fatal("DisableFlight run still has a recorder")
	}
}

// TestInvariantFailureDumpsFlight is the end-to-end post-mortem path: a run
// whose invariant checker trips must freeze a non-empty flight-recorder
// snapshot that still contains the failing flow's causal "flow" span, and
// write a banner-led JSONL dump.
func TestInvariantFailureDumpsFlight(t *testing.T) {
	loop := sim.NewLoop(1)
	flight := trace.NewFlight(trace.DefaultFlightLen, trace.CatAll)
	obs.DumpOnFailure(t, flight)
	tracer := (*trace.Tracer)(nil).WithFlight(flight)

	sc := Hybrid()
	ncfg := rdcn.DefaultConfig()
	ncfg.HostsPerRack = 1
	ncfg.TDNs = sc.TDNs
	ncfg.Schedule = sc.Schedule
	ncfg.VOQCap = sc.VOQCap
	net, err := rdcn.New(loop, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	loop.SetTracer(tracer)
	net.SetTracer(tracer)

	chk := invariant.New(loop)
	chk.SetTracer(tracer)
	var dump bytes.Buffer
	chk.SetFlight(flight, &dump)
	chk.WatchNetwork(net)

	flows, err := BuildFlows(net, 1, TDTCP, FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := flows[0]
	f.SetTracer(tracer, 0)
	chk.WatchConn(f.Snd, 0)
	chk.WatchConn(f.Rcv, 0)

	// An induced invariant that trips shortly after start, while the ring
	// still holds the run's opening records.
	sweeps := 0
	chk.WatchFunc("induced", 0, func() error {
		sweeps++
		if sweeps > 120 {
			return errors.New("induced failure for flight-dump test")
		}
		return nil
	})

	end := sim.Time(2 * sim.Millisecond)
	net.Start(end)
	sp := tracer.BeginSpan(trace.CatTCP, int64(loop.Now()), "flow", 0, -1, 0)
	f.Start(-1)
	loop.RunUntil(end)
	tracer.EndSpan(trace.CatTCP, int64(loop.Now()), "flow", 0, -1, sp, float64(f.Delivered()), 0)

	if len(chk.Violations()) == 0 {
		t.Fatal("induced invariant never tripped")
	}
	snap := chk.FlightSnapshot()
	if len(snap) == 0 {
		t.Fatal("violation left no flight snapshot")
	}
	foundSpan := false
	for _, ev := range snap {
		if ev.Name == "flow" && ev.Ph == "B" && ev.Flow == 0 {
			foundSpan = true
			break
		}
	}
	if !foundSpan {
		t.Fatalf("snapshot of %d events does not contain flow 0's causal span", len(snap))
	}
	out := dump.String()
	if !strings.Contains(out, "flight recorder dump") || !strings.Contains(out, "induced") {
		t.Fatalf("dump missing banner: %q", out[:min(len(out), 200)])
	}
	if !strings.Contains(out, `"name":"flow"`) {
		t.Fatal("dump JSONL missing the flow span record")
	}
}

// TestWorkloadFlightRecorder mirrors the default-recorder contract for
// workload runs.
func TestWorkloadFlightRecorder(t *testing.T) {
	res, err := RunWorkload(WorkloadConfig{Variant: TDTCP, MaxFlows: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flight == nil || res.Flight.Len() == 0 {
		t.Fatal("workload run has no populated flight recorder")
	}
}

// TestFlightRingsIgnoreTheWriter: an untraced run's tracer is flight-only; a
// run with a JSONL writer attached also streams every record. What the run
// does must not depend on which: the ring and the event count are the same
// with and without a writer streaming the recorder's own categories.
func TestFlightRingsIgnoreTheWriter(t *testing.T) {
	run := func(tr *trace.Tracer) (ring []trace.Event, fired uint64) {
		h := startedRunHarness(t, RunConfig{Variant: TDTCP, Scenario: MultiRack(4), Flows: 8,
			WarmupWeeks: 1, MeasureWeeks: 2, Tracer: tr})
		h.loop.RunUntil(h.end)
		if _, _, _, err := h.finish(); err != nil {
			t.Fatal(err)
		}
		return h.flight.Events(), h.loop.Fired()
	}
	var out bytes.Buffer
	tr := trace.New(&out, trace.DefaultFlightCats)
	traced, tracedFired := run(tr)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	plain, plainFired := run(nil)
	if out.Len() == 0 || len(plain) == 0 {
		t.Fatalf("nothing to compare: %d trace bytes, %d ring records", out.Len(), len(plain))
	}
	if plainFired != tracedFired {
		t.Errorf("%d events fired untraced, %d with a writer attached", plainFired, tracedFired)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Error("the ring differs with a writer attached")
	}
}

// TestRunPopulatesHistograms: a metered run must fill every wired histogram
// family — per-TDN RTT, VOQ occupancy, notification latency — and their
// summaries must appear in the JSON dump.
func TestRunPopulatesHistograms(t *testing.T) {
	reg := trace.NewRegistry()
	res, err := Run(RunConfig{Variant: TDTCP, Flows: 2, WarmupWeeks: 1, MeasureWeeks: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	obs.DumpOnFailure(t, res.Flight)
	for _, name := range []string{"tcp.rtt_tdn0_ns", "tcp.rtt_tdn1_ns", "voq.r0.occ_pkts", "rdcn.notify_lat_ns"} {
		h := reg.Hist(name)
		if h.Count() == 0 {
			t.Errorf("histogram %s recorded nothing", name)
			continue
		}
		if h.Quantile(0.5) <= 0 || h.Max() < h.Quantile(0.99) {
			t.Errorf("%s: implausible quantiles p50=%d p99=%d max=%d",
				name, h.Quantile(0.5), h.Quantile(0.99), h.Max())
		}
	}
	// The RTT histograms must reflect the two TDNs' different delays: the
	// optical TDN (1) is faster than the packet TDN (0).
	if p0, p1 := reg.Hist("tcp.rtt_tdn0_ns").Quantile(0.5), reg.Hist("tcp.rtt_tdn1_ns").Quantile(0.5); p1 >= p0 {
		t.Errorf("optical RTT p50 %dns not below packet RTT p50 %dns", p1, p0)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"histograms"`, `"tcp.rtt_tdn0_ns"`, `"p99"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics JSON missing %s", want)
		}
	}
}

// TestWorkloadPopulatesFCTHistogram: workload runs must record completion
// times into "fct.ns" matching the FCT accounting.
func TestWorkloadPopulatesFCTHistogram(t *testing.T) {
	reg := trace.NewRegistry()
	res, err := RunWorkload(WorkloadConfig{Variant: TDTCP, MaxFlows: 32, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	obs.DumpOnFailure(t, res.Flight)
	h := reg.Hist("fct.ns")
	if h.Count() == 0 {
		t.Fatal("fct.ns histogram recorded nothing")
	}
	if int(h.Count()) > res.FlowsCompleted {
		t.Fatalf("fct.ns count %d exceeds completed flows %d", h.Count(), res.FlowsCompleted)
	}
	if reg.Counter("workload.flows_completed") != int64(res.FlowsCompleted) {
		t.Errorf("workload.flows_completed = %d, want %d",
			reg.Counter("workload.flows_completed"), res.FlowsCompleted)
	}
}
