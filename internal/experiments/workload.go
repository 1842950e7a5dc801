package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"slices"

	"github.com/rdcn-net/tdtcp/internal/obs"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/stats"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
	"github.com/rdcn-net/tdtcp/internal/workload"
)

// WorkloadConfig specifies one open-loop flow-workload run: finite flows with
// sizes drawn from a distribution arrive as a Poisson process and run to
// completion, the datacenter-workload counterpart of RunConfig's long-running
// §5.1 flows.
type WorkloadConfig struct {
	Variant  Variant
	Scenario Scenario
	// Dist is the flow-size distribution (default workload.WebSearch()).
	Dist *workload.FlowSizeCDF
	// Load is the offered load as a fraction of the fabric's aggregate
	// schedule-weighted capacity (default 0.3).
	Load float64
	// Hosts is the host count per rack (default 4).
	Hosts int
	// WarmupWeeks precede the measurement window of MeasureWeeks (defaults
	// 1 and 4). Arrivals run over the whole horizon; FCTs are recorded for
	// flows arriving inside the window.
	WarmupWeeks, MeasureWeeks int
	Seed                      int64
	// Shards is a refused stub that goes with ROADMAP item 2's benchmark
	// change, like RunConfig.Shards: 0 or 1, else an error.
	Shards int
	// MaxFlows caps total arrivals so a mis-set load cannot spawn unbounded
	// work (default 512).
	MaxFlows int
	// SampleEvery is the VOQ-occupancy sampling cadence (default 5 µs).
	SampleEvery sim.Dur
	// MarkThresh is the ECN marking threshold; defaults to 5 packets when
	// the flows run a congestion control that needs ECN (DCTCP, or a DCTCP
	// TDN of PerTDNCC), otherwise 0.
	MarkThresh int
	Notify     *rdcn.NotifyProfile
	Flow       FlowOptions
	Tracer     *trace.Tracer
	// Metrics, when non-nil, is populated with run-level counters plus the
	// run's histograms: flow completion times ("fct.ns") and the same
	// per-TDN RTT / VOQ occupancy / notification-latency / deadman-lag
	// histograms as RunConfig.Metrics.
	Metrics *trace.Registry
	// Flight and DisableFlight mirror RunConfig: the always-on flight
	// recorder, created by default, dumped to stderr on conservation failure
	// or panic. Parallel sweeps give every run its own recorder, like the
	// Tracer contract.
	Flight        *trace.Flight
	DisableFlight bool
	// Meter, when non-nil, taps the run for live progress (see
	// RunConfig.Meter); workload runs additionally count flow arrivals and
	// completions through it.
	Meter *obs.Meter
	// Stop and StopEvery mirror RunConfig: the cooperative cancellation
	// seam, polled between events, that makes RunWorkload return an error
	// wrapping ErrCancelled without perturbing the executed prefix.
	Stop      func() bool
	StopEvery int

	// tweakNet selects a reference data plane and onNet watches the network
	// (see RunConfig).
	tweakNet func(*rdcn.Config)
	onNet    func(*rdcn.Network)
	// firstPort is the port the first arrival takes (default minPort); a
	// seam for testing the wrap without 64 512 arrivals.
	firstPort int
	// noReuse constructs both endpoints of every arrival instead of reopening
	// released ones (see muxNet.noReuse): the test-only reference that shows
	// reuse changes no output byte.
	noReuse bool
}

// Every arrival takes the next port, from minPort up, as its demux key on
// both hosts. Past maxPort the sequence wraps to the ports released flows
// have given back; an arrival whose port is still bound on one of its hosts
// fails the run.
const (
	minPort = 1024
	maxPort = 0xFFFF
)

func (cfg *WorkloadConfig) fillDefaults() {
	if cfg.Scenario.Name == "" {
		cfg.Scenario = MultiRack(4)
	}
	if cfg.Dist == nil {
		cfg.Dist = workload.WebSearch()
	}
	if cfg.Load == 0 {
		cfg.Load = 0.3
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = 4
	}
	if cfg.WarmupWeeks == 0 {
		cfg.WarmupWeeks = 1
	}
	if cfg.MeasureWeeks == 0 {
		cfg.MeasureWeeks = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxFlows == 0 {
		cfg.MaxFlows = 512
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 5 * sim.Microsecond
	}
	if cfg.MarkThresh == 0 && needsECN(cfg.Variant, cfg.Flow) {
		cfg.MarkThresh = 5
	}
	if cfg.firstPort == 0 {
		cfg.firstPort = minPort
	}
}

// linger is how long a finished flow keeps its ports bound: TCP's TIME_WAIT
// of 2 x MSL, with the maximum segment lifetime taken from the scenario as
// one schedule week (the longest a segment waits in a VOQ for its circuit)
// plus the slowest TDN's one-way delay.
func (cfg *WorkloadConfig) linger() sim.Dur {
	var slowest sim.Dur
	for _, t := range cfg.Scenario.TDNs {
		slowest = max(slowest, t.Delay)
	}
	return 2 * (cfg.Scenario.Schedule.Week() + slowest)
}

// WorkloadResult carries the outcome of one workload run.
type WorkloadResult struct {
	Variant Variant
	Cfg     WorkloadConfig

	// FCT holds completion times of flows that arrived inside the
	// measurement window and finished before the horizon (the usual
	// open-loop censoring).
	FCT stats.FCT
	// FlowsStarted counts all arrivals; FlowsCompleted counts flows whose
	// FIN was acknowledged before the horizon; FlowsReleased counts those
	// whose linger then ran out, so that their ports and state were given
	// back (see RunWorkload).
	FlowsStarted, FlowsCompleted, FlowsReleased int
	// PortsBoundMax is the most ports bound at once, summed over every host
	// (two per flow open or lingering); LateSegs counts segments dropped
	// because they arrived for a port already unbound.
	PortsBoundMax int
	LateSegs      uint64
	// Sender and Receiver sum the endpoint counters of every flow started.
	Sender, Receiver tcp.Stats
	// BytesOffered sums the sizes of all arrived flows.
	BytesOffered int64
	// GoodputGbps is aggregate application-delivered throughput over the
	// measurement window; MeanVOQ is the mean total VOQ occupancy (packets,
	// summed over racks) over the same window.
	GoodputGbps float64
	MeanVOQ     float64
	// Frame-conservation ledger at the horizon (see rdcn.FrameLedger).
	FramesSent, FramesDelivered, FramesMisrouted uint64
	// Flight is the run's flight recorder (nil when disabled).
	Flight *trace.Flight

	// The flow life cycle at the horizon, for this package's tests.
	life lifeCensus
}

// lifeCensus counts what a workload run still holds at the horizon, each
// taken from the structure itself rather than from the life-cycle counters.
type lifeCensus struct {
	retired     int // flows that have left the notify sets, lingering or released
	notifyWidth int // endpoints in the notify sets, over every host
	portsBound  int // ports bound, over every host
	liveConns   int // connections attached to the pool and not released
	flows       int // flows the harness still tracks
	// Endpoint reuse (muxNet): released endpoints waiting on the parked list,
	// those a run of equal variant, TDN count and FlowOptions handed on
	// included, endpoints this run constructed, and the times one was
	// reopened.
	parked, built, reopened int
}

// arrival is what RunWorkload knows of a flow's current life, written at each
// arrival. done, the sender's FIN-ack callback, reads it; it is bound once per
// Flow, so an arrival that reopens a parked flow allocates no closure.
type arrival struct {
	id    int
	size  int64
	start sim.Time
	span  trace.SpanID // the "flow" causal span, arrival to FIN-ack
	done  func(now sim.Time)
}

// RunWorkload executes one open-loop workload experiment. Flow arrivals are a
// Poisson process whose mean rate offers cfg.Load of the fabric's aggregate
// capacity; each arrival picks uniform source and destination (distinct racks)
// and a size from cfg.Dist. The arrival process draws from its own generator
// seeded with cfg.Seed, not the loop's (which connections draw their initial
// sequence numbers from, as their SYNs arrive), so every variant is offered the
// same flows for a seed. Frame conservation and the byte ledger over every
// flow are checked at the horizon, and each flow's bytes at its FIN-ack: a
// completed flow must have handed its receiver exactly the bytes it was given.
func RunWorkload(cfg WorkloadConfig) (*WorkloadResult, error) {
	cfg.fillDefaults()
	if err := CheckVariant(cfg.Variant, cfg.Scenario.Racks, true); err != nil {
		return nil, err
	}
	// The harness reads what the two configs share off a RunConfig. A flow's
	// life has three stages after its arrival: it is open until its FIN is
	// acknowledged; at the first arrival after that it leaves its hosts'
	// notify sets and lingers, ports still bound, because the receiver must
	// still answer a late retransmission; at the first arrival at or after
	// leave + linger it is released: ports unbound, queue entries back in
	// the pool, the Flow parked whole for a later arrival to reopen. What is
	// kept of it is the result: its FCT sample and its share of the summed
	// counters. So per-event work, per-notification work and memory all
	// follow the flows open or lingering, and only the result grows with the
	// flows started: on the 8-rack rotor at load 0.4 a further flow costs
	// 417 B in 1.3 mallocs (TestWorkloadChurnAllocatesForItsResultOnly).
	rc := RunConfig{
		Variant: cfg.Variant, Scenario: cfg.Scenario,
		WarmupWeeks: cfg.WarmupWeeks, MeasureWeeks: cfg.MeasureWeeks,
		Seed: cfg.Seed, Shards: cfg.Shards, MarkThresh: cfg.MarkThresh, Notify: cfg.Notify,
		Flow: cfg.Flow, Tracer: cfg.Tracer, Metrics: cfg.Metrics,
		Flight: cfg.Flight, DisableFlight: cfg.DisableFlight, Meter: cfg.Meter,
		Stop: cfg.Stop, StopEvery: cfg.StopEvery, tweakNet: cfg.tweakNet, onNet: cfg.onNet,
	}
	h, err := newHarness(&rc, fmt.Sprintf("workload %s on %s", cfg.Variant, cfg.Scenario.Name), cfg.Hosts)
	if err != nil {
		return nil, err
	}
	defer h.dumpOnPanic()
	loop, net, tracer, racks := h.loop, h.net, h.tracer, h.racks
	measureStart, end := h.measureStart, h.end

	fctHist := cfg.Metrics.Hist("fct.ns")
	mn, err := newMuxNet(net, h.mem, cfg.Variant, cfg.Flow)
	if err != nil {
		return nil, err
	}
	mn.noReuse = cfg.noReuse
	h.mux = mn
	h.start()

	// Aggregate capacity = per-rack schedule-weighted uplink rate × racks.
	aggRate := sim.Rate(workload.OptimalGbps(cfg.Scenario.Schedule, cfg.Scenario.TDNs)*1e9) * sim.Rate(racks)
	meanGap := workload.MeanInterarrival(cfg.Dist, cfg.Load, aggRate)

	res := &WorkloadResult{Variant: cfg.Variant, Cfg: cfg}
	var buildErr, ledgerErr error
	rng := rand.New(rand.NewSource(cfg.Seed))
	nextPort := cfg.firstPort
	// finished holds, in completion order, the flows whose FIN was acknowledged
	// since the last arrival. Each arrival moves the life cycle on: it releases
	// the flows whose linger has run out and retires the finished ones, at O(1)
	// amortised per flow, with no timer of their own.
	var finished []*Flow
	type lingerRec struct {
		f    *Flow
		left sim.Time
	}
	var lingering []lingerRec // in leave order
	linger := cfg.linger()
	// complete is a flow's FIN-ack: its byte ledger, span end and FCT.
	complete := func(f *Flow, now sim.Time) {
		a := &f.arrival
		if got := f.Delivered(); got != a.size && ledgerErr == nil {
			// Dumped at the break, not at the horizon, so the ring holds
			// the events that led to it.
			ledgerErr = fmt.Errorf("byte ledger: flow %d delivered %d of %d bytes at FIN-ack (%v)", a.id, got, a.size, now)
			dumpFlight(os.Stderr, h.flight, ledgerErr.Error())
		}
		cfg.Meter.FlowDone()
		tracer.EndSpan(trace.CatTCP, int64(now), "flow", a.id, -1, a.span, float64(a.size), 0)
		finished = append(finished, f)
		res.FlowsCompleted++
		if a.start >= measureStart {
			res.FCT.Record(a.size, a.start, now)
			fctHist.Record(int64(now.Sub(a.start)))
		}
	}
	var spawn func()
	spawn = func() {
		now := loop.Now()
		due := 0
		for ; due < len(lingering) && now.Sub(lingering[due].left) >= linger; due++ {
			f := lingering[due].f
			mn.release(f)
			h.dropFlow(f)
			addStats(&res.Sender, &f.Snd.Stats)
			addStats(&res.Receiver, &f.Rcv.Stats)
			res.FlowsReleased++
		}
		lingering = slices.Delete(lingering, 0, due)
		for i, f := range finished {
			mn.leave(f)
			lingering = append(lingering, lingerRec{f: f, left: now})
			finished[i] = nil
			res.life.retired++
		}
		finished = finished[:0]
		if buildErr != nil || res.FlowsStarted >= cfg.MaxFlows {
			return // stop the arrival process; pending flows run out
		}
		src := rng.Intn(racks)
		dst := (src + 1 + rng.Intn(racks-1)) % racks
		sh, dh := rng.Intn(cfg.Hosts), rng.Intn(cfg.Hosts)
		size := cfg.Dist.Sample(rng)
		port := uint16(nextPort)
		if nextPort++; nextPort > maxPort {
			nextPort = minPort
		}
		f, err := mn.BuildFlow(src, sh, dst, dh, port)
		if err != nil {
			buildErr = err
			return
		}
		id := res.FlowsStarted
		h.addFlow(f, id)
		res.FlowsStarted++
		res.PortsBoundMax = max(res.PortsBoundMax, 2*(res.FlowsStarted-res.FlowsReleased))
		res.BytesOffered += size
		cfg.Meter.FlowStarted()
		// The flow's lifetime (arrival to FIN-ack) is a causal span; flows
		// still open at the horizon leave theirs unclosed.
		sp := tracer.BeginSpan(trace.CatTCP, int64(now), "flow", id, -1, 0)
		done := f.arrival.done
		if done == nil { // a new Flow; a reopened one kept its callback
			done = func(now sim.Time) { complete(f, now) }
		}
		f.arrival = arrival{id: id, size: size, start: now, span: sp, done: done}
		f.Snd.OnDone = done
		f.Start(size)
		f.Snd.Close() // queue the FIN behind the data; its ACK is the FCT instant
		loop.After(workload.Interarrival(rng, meanGap), spawn)
	}
	loop.After(workload.Interarrival(rng, meanGap), spawn)

	// Only the mean is reported, so the sampler's keep bound precedes its first
	// tick and it stores no points.
	var voq *stats.Sampler
	err = h.run(func() {
		voq = stats.NewSampler(loop, string(cfg.Variant), cfg.SampleEvery, end, measureStart.Add(-cfg.SampleEvery),
			func() float64 { return float64(net.QueueLen()) })
	})
	if err != nil {
		return nil, err
	}

	if buildErr != nil {
		return nil, buildErr
	}
	if ledgerErr != nil {
		return nil, fmt.Errorf("experiments: workload run %s: %w", cfg.Scenario.Name, ledgerErr)
	}
	res.GoodputGbps = h.goodputGbps()
	res.MeanVOQ = voq.Mean()
	for _, f := range h.flows { // open or lingering; the released are in already
		addStats(&res.Sender, &f.Snd.Stats)
		addStats(&res.Receiver, &f.Rcv.Stats)
	}
	res.life.notifyWidth, res.life.portsBound, res.LateSegs = mn.census()
	res.life.flows = len(h.flows)
	res.life.liveConns = h.pool.LiveConns()
	res.life.parked = 2 * len(h.mem.parked)
	res.life.built, res.life.reopened = mn.built, mn.reopened
	res.FramesSent, res.FramesDelivered, res.FramesMisrouted, err = h.finish(byteLedger{
		acked: res.Sender.BytesAcked, fins: res.FlowsCompleted,
		delivered: res.Receiver.BytesDelivered, written: res.BytesOffered})
	if err != nil {
		return nil, fmt.Errorf("experiments: workload run %s: %w", cfg.Scenario.Name, err)
	}
	res.Flight = h.flight
	if m := cfg.Metrics; m != nil {
		m.Set("workload.goodput_gbps", res.GoodputGbps)
		m.Set("workload.mean_voq_pkts", res.MeanVOQ)
		m.Add("workload.flows_started", int64(res.FlowsStarted))
		m.Add("workload.flows_completed", int64(res.FlowsCompleted))
		m.Add("workload.flows_released", int64(res.FlowsReleased))
		m.Add("workload.late_segs", int64(res.LateSegs))
		m.Set("workload.ports_bound_max", float64(res.PortsBoundMax))
		m.Add("workload.bytes_offered", res.BytesOffered)
	}
	h.release()
	return res, nil
}
