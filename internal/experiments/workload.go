package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/netem"
	"github.com/rdcn-net/tdtcp/internal/obs"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/stats"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
	"github.com/rdcn-net/tdtcp/internal/workload"
)

// hostMux demultiplexes one host's frames to many connections by TCP
// destination port, and fans TDN notifications out to the host's live TDTCP
// endpoints. The two-rack experiments wire exactly one connection per host;
// multi-rack workloads need several, so the mux owns the host's
// Recv/NotifyTDN upcalls.
//
// An endpoint's two memberships have different lifetimes. Its place in notify
// — the §3.2 "every TDTCP socket on the host" set — begins at
// muxNet.BuildFlow and ends at muxNet.leave, so what a TDN change costs a
// host follows the flows open on it. Its port is bound in conns by BuildFlow
// and outlives leave by a linger, TCP's TIME_WAIT: a receiver must still
// (D-)SACK a retransmission that arrives after the flow completed. At
// muxNet.release the port is unbound and the connection's queue storage goes
// back to the run's pool, so what a host holds follows the flows open or
// lingering on it, not the flows it ever carried. A segment for an unbound port is
// dropped and counted, as a host does after TIME_WAIT. The released connection
// itself is parked for a later arrival to reopen (muxNet.parked).
//
// The map is looked up, never ranged over, and notify keeps join order
// (fan-out order is trace order), so event order stays deterministic.
type hostMux struct {
	host   *rdcn.Host
	send   func(*packet.Segment) // host.Send, bound once: the Out of every endpoint here
	seg    packet.Segment
	conns  map[uint16]*tcp.Conn
	notify []*tcp.Conn
	late   uint64 // segments dropped for want of a bound port
}

func newHostMux(host *rdcn.Host) *hostMux {
	m := &hostMux{host: host, send: host.Send, conns: make(map[uint16]*tcp.Conn)}
	m.seg.TCP.SACK = make([]packet.SACKBlock, 0, 4)
	return m
}

func (m *hostMux) recv(fr netem.Frame) {
	if err := packet.Parse(fr.Wire, &m.seg); err != nil {
		return // corrupted frames are dropped silently, as on a real NIC
	}
	c, ok := m.conns[m.seg.TCP.DstPort]
	if !ok {
		m.late++
		return
	}
	c.Input(&m.seg)
}

// recvBatch is the batched-delivery counterpart of recv: one upcall per
// (host, TDN) batch, one demuxed Input per frame inside.
func (m *hostMux) recvBatch(fs []netem.Frame, _ int) {
	for _, fr := range fs {
		m.recv(fr)
	}
}

func (m *hostMux) notifyTDN(tdn int, epoch uint32) {
	for _, c := range m.notify {
		c.Notify(tdn, epoch)
	}
}

// leave takes c out of the notify set, keeping the others in join order.
func (m *hostMux) leave(c *tcp.Conn) {
	if i := slices.Index(m.notify, c); i >= 0 {
		m.notify = slices.Delete(m.notify, i, i+1)
	}
}

// muxNet overlays a hostMux on every host of a network, so flows can be wired
// between arbitrary rack/host pairs instead of the two-rack one-flow-per-host
// layout of BuildFlow. Every flow of one muxNet is of one variant with one set
// of FlowOptions, which is what makes a released endpoint fit the next flow.
type muxNet struct {
	net     *rdcn.Network
	variant Variant
	opt     FlowOptions
	pool    *tcp.Pool           // the harness's
	muxes   [][]*hostMux        // [rack][host]
	byAddr  map[uint32]*hostMux // the same muxes by host address, for leave

	// parked holds the endpoints release has retired, oldest first, until an
	// arrival reopens them (DESIGN.md §10 "Endpoint reuse").
	parked []*tcp.Conn
	// built and reopened count the endpoints constructed and the times one
	// was reopened: two per flow between them. refused counts the parked
	// endpoints an arrival passed over because a timer of theirs was pending.
	built, reopened, refused int
	// noReuse makes every arrival construct its endpoints: the reference
	// this package's tests hold reuse against.
	noReuse bool
}

func newMuxNet(net *rdcn.Network, pool *tcp.Pool, v Variant, opt FlowOptions) *muxNet {
	mn := &muxNet{net: net, variant: v, opt: opt, pool: pool,
		muxes: make([][]*hostMux, len(net.Racks)), byAddr: make(map[uint32]*hostMux)}
	for r, rack := range net.Racks {
		mn.muxes[r] = make([]*hostMux, len(rack.Hosts))
		for h, host := range rack.Hosts {
			m := newHostMux(host)
			mn.muxes[r][h] = m
			mn.byAddr[host.Addr] = m
			host.Recv = m.recv
			host.RecvBatch = m.recvBatch
			host.NotifyTDN = m.notifyTDN
		}
	}
	return mn
}

// BuildFlow wires one single-path flow of the muxNet's variant from (srcRack,
// srcHost) to (dstRack, dstHost). Both endpoints use the same port number,
// which must be unique per endpoint host among the ports bound at the time —
// it is the demux key on both sides. Each endpoint is the oldest parked one
// that can be reopened, or else a new one. A TDTCP flow's
// endpoints join their hosts' notify sets here and leave them at leave; the
// ports are unbound at release. MPTCP and the reTCP variants are two-rack
// constructs (subflow pinning and the circuit-up signal have no rotor
// analogue) and are rejected.
func (mn *muxNet) BuildFlow(srcRack, srcHost, dstRack, dstHost int, port uint16) (*Flow, error) {
	switch mn.variant {
	case MPTCP, ReTCP, ReTCPDyn:
		return nil, fmt.Errorf("experiments: variant %s is not supported on the multi-rack mux path", mn.variant)
	default:
		// Cubic, DCTCP, Reno, TDTCP are single-path and rack-count-agnostic.
	}
	for _, ep := range [...]struct{ rack, host int }{{srcRack, srcHost}, {dstRack, dstHost}} {
		if ep.rack < 0 || ep.rack >= len(mn.net.Racks) {
			return nil, fmt.Errorf("experiments: rack %d out of range", ep.rack)
		}
		if ep.host < 0 || ep.host >= len(mn.net.Racks[ep.rack].Hosts) {
			return nil, fmt.Errorf("experiments: host %d out of range", ep.host)
		}
	}
	if srcRack == dstRack && srcHost == dstHost {
		return nil, fmt.Errorf("experiments: flow endpoints coincide (rack %d host %d)", srcRack, srcHost)
	}
	sm, dm := mn.muxes[srcRack][srcHost], mn.muxes[dstRack][dstHost]
	if _, dup := sm.conns[port]; dup {
		return nil, fmt.Errorf("experiments: port %d already in use on rack %d host %d", port, srcRack, srcHost)
	}
	if _, dup := dm.conns[port]; dup {
		return nil, fmt.Errorf("experiments: port %d already in use on rack %d host %d", port, dstRack, dstHost)
	}

	// Sender first, as always: a TDTCP policy may arm its deadman when it
	// attaches, and arming order is trace order.
	f := &Flow{Variant: mn.variant}
	var err error
	if f.Snd, err = mn.endpoint(sm); err != nil {
		return nil, err
	}
	if f.Rcv, err = mn.endpoint(dm); err != nil {
		return nil, err
	}
	f.Snd.LocalAddr, f.Snd.RemoteAddr = sm.host.Addr, dm.host.Addr
	f.Snd.LocalPort, f.Snd.RemotePort = port, port
	f.Rcv.LocalAddr, f.Rcv.RemoteAddr = dm.host.Addr, sm.host.Addr
	f.Rcv.LocalPort, f.Rcv.RemotePort = port, port
	f.Rcv.Listen()

	sm.conns[port] = f.Snd
	dm.conns[port] = f.Rcv
	if mn.variant == TDTCP {
		sm.notify = append(sm.notify, f.Snd)
		dm.notify = append(dm.notify, f.Rcv)
	}
	return f, nil
}

// endpoint returns a connection for one end of a new flow on host m: the
// oldest parked endpoint whose timers have run out, reopened, or failing that
// a new one. An endpoint passed over stays parked for a later arrival: its
// retransmission timer can be owed a fire for up to MaxRTO after the flow
// ended, which the linger does not cover.
func (mn *muxNet) endpoint(m *hostMux) (*tcp.Conn, error) {
	list := mn.parked
	if mn.noReuse {
		list = nil
	}
	for i, c := range list {
		if c.Reopen(m.send) {
			mn.parked = slices.Delete(list, i, i+1)
			mn.reopened++
			return c, nil
		}
		mn.refused++
	}
	cfg, err := endpointConfig(mn.net, mn.variant, mn.opt, mn.pool)
	if err != nil {
		return nil, err
	}
	mn.built++
	return tcp.NewConn(mn.net.Loop, cfg, m.send), nil
}

// leave retires a flow whose sender has seen its FIN acknowledged: both
// endpoints stop receiving TDN notifications, and a notification deadman, if
// armed, is stopped — with the notifications gone, silence would otherwise
// engage it on a dead flow for the rest of the run. The ports stay bound until
// release (see hostMux).
func (mn *muxNet) leave(f *Flow) {
	for _, c := range [...]*tcp.Conn{f.Snd, f.Rcv} {
		mn.byAddr[c.LocalAddr].leave(c)
		if p, ok := c.Config().Policy.(*core.TDTCP); ok {
			p.StopDeadman()
		}
	}
}

// release ends the linger of a flow that has left: both ports are unbound,
// both connections return their retransmission-queue entries and queue
// arrays to the pool, and each is parked. The flow's armed timers still fire,
// as no-ops, so the event sequence is what it would have been.
func (mn *muxNet) release(f *Flow) {
	for _, c := range [...]*tcp.Conn{f.Snd, f.Rcv} {
		delete(mn.byAddr[c.LocalAddr].conns, c.LocalPort)
		c.Release()
		mn.parked = append(mn.parked, c)
	}
}

// census sums the muxes over every host: the endpoints one TDN change is
// fanned out to, the ports bound, and the segments dropped at unbound ports.
func (mn *muxNet) census() (notifyWidth, portsBound int, lateSegs uint64) {
	for _, rack := range mn.muxes {
		for _, m := range rack {
			notifyWidth += len(m.notify)
			portsBound += len(m.conns)
			lateSegs += m.late
		}
	}
	return notifyWidth, portsBound, lateSegs
}

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
	// Shards is a refused stub (see RunConfig.Shards): 0 or 1, else an error.
	Shards int
	// MaxFlows caps total arrivals so a mis-set load cannot spawn unbounded
	// work (default 512).
	MaxFlows int
	// SampleEvery is the VOQ-occupancy sampling cadence (default 5 µs).
	SampleEvery sim.Dur
	// MarkThresh is the ECN marking threshold; defaults to 5 packets when
	// the variant is DCTCP, otherwise 0.
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

	// tweakNet selects a reference data plane (see RunConfig.tweakNet).
	tweakNet func(*rdcn.Config)
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
	if cfg.MarkThresh == 0 && cfg.Variant == DCTCP {
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
	// endpoints ever constructed, the times one was reopened, and the times
	// an arrival passed one over because a timer of its was still pending.
	parked, built, reopened, refused int
}

// RunWorkload executes one open-loop workload experiment. Flow arrivals are a
// Poisson process whose mean rate offers cfg.Load of the fabric's aggregate
// capacity; each arrival picks uniform source and destination (distinct racks)
// and a size from cfg.Dist. The arrival process draws from its own generator
// seeded with cfg.Seed, not the loop's (which connections draw their initial
// sequence numbers from, as their SYNs arrive), so every variant is offered the
// same flows for a seed. Frame conservation is checked at the horizon.
func RunWorkload(cfg WorkloadConfig) (*WorkloadResult, error) {
	cfg.fillDefaults()
	switch cfg.Variant {
	case TDTCP, Cubic, DCTCP, Reno:
	default:
		return nil, fmt.Errorf("experiments: variant %s is not supported by RunWorkload", cfg.Variant)
	}
	// The harness reads what the two configs share off a RunConfig. A flow's
	// life has three stages after its arrival: it is open until its FIN is
	// acknowledged; at the first arrival after that it leaves its hosts'
	// notify sets and lingers, ports still bound, because the receiver must
	// still answer a late retransmission; at the first arrival at or after
	// leave + linger it is released: ports unbound, queue storage back in the
	// pool, the Flow dropped. What is kept of it is the result: its FCT sample
	// and its share of the summed counters. So per-event work,
	// per-notification work and memory all follow the flows open or
	// lingering, and only the result grows with the flows started.
	rc := RunConfig{
		Variant: cfg.Variant, Scenario: cfg.Scenario,
		WarmupWeeks: cfg.WarmupWeeks, MeasureWeeks: cfg.MeasureWeeks,
		Seed: cfg.Seed, Shards: cfg.Shards, MarkThresh: cfg.MarkThresh, Notify: cfg.Notify,
		Flow: cfg.Flow, Tracer: cfg.Tracer, Metrics: cfg.Metrics,
		Flight: cfg.Flight, DisableFlight: cfg.DisableFlight, Meter: cfg.Meter,
		Stop: cfg.Stop, StopEvery: cfg.StopEvery, tweakNet: cfg.tweakNet,
	}
	h, err := newHarness(&rc, fmt.Sprintf("workload %s on %s", cfg.Variant, cfg.Scenario.Name), cfg.Hosts)
	if err != nil {
		return nil, err
	}
	defer h.dumpOnPanic()
	loop, net, tracer, racks := h.loop, h.net, h.tracer, h.racks
	measureStart, end := h.measureStart, h.end

	fctHist := cfg.Metrics.Hist("fct.ns")
	mn := newMuxNet(net, h.pool, cfg.Variant, cfg.Flow)
	mn.noReuse = cfg.noReuse
	h.start()

	// Aggregate capacity = per-rack schedule-weighted uplink rate × racks.
	aggRate := sim.Rate(workload.OptimalGbps(cfg.Scenario.Schedule, cfg.Scenario.TDNs)*1e9) * sim.Rate(racks)
	meanGap := workload.MeanInterarrival(cfg.Dist, cfg.Load, aggRate)

	res := &WorkloadResult{Variant: cfg.Variant, Cfg: cfg}
	var buildErr error
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
		start := now
		res.FlowsStarted++
		res.PortsBoundMax = max(res.PortsBoundMax, 2*(res.FlowsStarted-res.FlowsReleased))
		res.BytesOffered += size
		cfg.Meter.FlowStarted()
		// The flow's lifetime (arrival to FIN-ack) is a causal span; flows
		// still open at the horizon leave theirs unclosed.
		sp := tracer.BeginSpan(trace.CatTCP, int64(start), "flow", id, -1, 0)
		f.Snd.OnDone = func(now sim.Time) {
			cfg.Meter.FlowDone()
			tracer.EndSpan(trace.CatTCP, int64(now), "flow", id, -1, sp, float64(size), 0)
			finished = append(finished, f)
			res.FlowsCompleted++
			if start >= measureStart {
				res.FCT.Record(size, start, now)
				fctHist.Record(int64(now.Sub(start)))
			}
		}
		f.Start(size)
		f.Snd.Close() // queue the FIN behind the data; its ACK is the FCT instant
		loop.After(workload.Interarrival(rng, meanGap), spawn)
	}
	loop.After(workload.Interarrival(rng, meanGap), spawn)

	// Only the mean is reported, so the sampler's keep bound precedes its first
	// tick and it stores no points.
	var voq *stats.Sampler
	err = h.run(func() {
		voq = stats.NewSampler(loop, string(cfg.Variant), cfg.SampleEvery, end, measureStart.Add(-cfg.SampleEvery), func() float64 {
			n := 0
			for _, rack := range net.Racks {
				n += rack.QueueLen()
			}
			return float64(n)
		})
	})
	if err != nil {
		return nil, err
	}

	if buildErr != nil {
		return nil, buildErr
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
	res.life.parked = len(mn.parked)
	res.life.built, res.life.reopened, res.life.refused = mn.built, mn.reopened, mn.refused
	res.FramesSent, res.FramesDelivered, res.FramesMisrouted, err = h.finish()
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
	return res, nil
}

// WorkloadSweepResult pairs one workload sweep cell with its outcome.
type WorkloadSweepResult struct {
	Cfg WorkloadConfig
	Res *WorkloadResult
	Err error
}

// SweepWorkload executes every configuration, workers at a time, with results
// indexed by input position (see Sweep for the concurrency contract; runs
// share no state, and configurations must not share a Tracer, Metrics
// registry, or Flight recorder when workers exceeds 1 — the default
// per-run flight recorder is always private).
func SweepWorkload(cfgs []WorkloadConfig, workers int) []WorkloadSweepResult {
	return SweepWorkloadWithObserver(cfgs, workers, nil)
}

// SweepWorkloadWithObserver is SweepWorkload with per-cell progress callbacks
// (see SweepWithObserver; nil obs = plain SweepWorkload).
func SweepWorkloadWithObserver(cfgs []WorkloadConfig, workers int, obs SweepObserver) []WorkloadSweepResult {
	out := make([]WorkloadSweepResult, len(cfgs))
	sweepCells(len(cfgs), workers, obs, func(i int) error {
		res, err := RunWorkload(cfgs[i])
		out[i] = WorkloadSweepResult{Cfg: cfgs[i], Res: res, Err: err}
		return err
	})
	return out
}
