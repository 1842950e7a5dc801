package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"github.com/rdcn-net/tdtcp/internal/cc"
	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/experiments"
	"github.com/rdcn-net/tdtcp/internal/netem"
	"github.com/rdcn-net/tdtcp/internal/obs"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/serve"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
	"github.com/rdcn-net/tdtcp/internal/workload"
)

// The ladder drives each layer alone, from outside, through its exported
// functions, and reports host ns per operation. A rung is calibrated until
// one batch takes about rungBatch, then the least of rungSamples batches is
// kept (the least, not the median: nothing but interference makes a batch of
// fixed work slower). The issue asked for >=1 s per rung; the driver's run
// budget allows about a fifth of that, so batches are shorter, not smaller
// in kind.
const (
	rungBatch   = 40 * time.Millisecond
	rungSamples = 5
)

// bench returns the ns per operation of batch, which performs n operations
// and returns how long the measured part took.
func bench(sz sizes, batch func(n int) time.Duration) float64 {
	if sz.smoke {
		return float64(batch(1).Nanoseconds())
	}
	n := 1
	d := batch(n)
	for d < rungBatch/4 && n < 1<<30 {
		n *= 8
		d = batch(n)
	}
	if scaled := float64(n) * float64(rungBatch) / float64(d); scaled >= 1 {
		n = int(scaled)
	}
	best := math.Inf(1)
	for i := 0; i < rungSamples; i++ {
		best = math.Min(best, float64(batch(n).Nanoseconds())/float64(n))
	}
	return best
}

// runLadder measures every rung ms does not hold yet (the traced pass of
// hybrid_tdtcp_long arrives with the 6 s w512 rung already timed).
func runLadder(sz sizes, ms *metricSet) {
	rungs := []struct {
		name string
		f    func(sizes) float64
	}{
		{"sim.heap_ns_per_event", rungHeap},
		{"sim.sharded_ns_per_event", rungSharded},
		{"netem.voq_ns_per_frame", rungVOQ},
		{"netem.bufpool_ns_per_getput", rungBufPool},
		{"packet.serialize_data_ns", func(sz sizes) float64 { return rungSerialize(sz, dataSegment()) }},
		{"packet.parse_data_ns", func(sz sizes) float64 { return rungParse(sz, dataSegment()) }},
		{"packet.serialize_ack_ns", func(sz sizes) float64 { return rungSerialize(sz, ackSegment()) }},
		{"packet.parse_ack_ns", func(sz sizes) float64 { return rungParse(sz, ackSegment()) }},
		{"cc.cubic_onack_ns", func(sz sizes) float64 { return rungCC(sz, "cubic") }},
		{"cc.dctcp_onack_ns", func(sz sizes) float64 { return rungCC(sz, "dctcp") }},
		{"core.notify_ns_per_switch", rungNotify},
		{"rdcn.schedule_at_ns", rungScheduleAt},
		{"workload.optimal_series_ms_w20", func(sz sizes) float64 { return rungOptimalSeries(sz, sz.figWeeks, rungSamples) }},
		{"workload.optimal_series_ms_w512", func(sz sizes) float64 { return rungOptimalSeries(sz, sz.longWeeks, 1) }},
		{"workload.fsize_sample_ns", rungFlowSize},
		{"trace.emit_flight_ns", rungEmitFlight},
		{"trace.emit_jsonl_ns", rungEmitJSONL},
		{"trace.hist_record_ns", rungHist},
		{"experiments.run_min_ms", rungRunMin},
		{"experiments.sweep_speedup_w2", rungSweepSpeedup},
		{"serve.spec_key_us", rungSpecKey},
		{"serve.submit_hit_us", rungSubmitHit},
	}
	for _, r := range rungs {
		if _, have := ms.vals[r.name]; !have {
			ms.set(r.name, r.f(sz))
		}
	}
	// Rungs that run loop events also report how many per operation, so the
	// attribution can take the engine's share out of them.
	for _, r := range []struct {
		name string
		f    func(sizes) (ns, events float64)
	}{
		{"netem.pipe", rungPipe},
		{"rdcn.forward", func(sz sizes) (float64, float64) { return rungForward(sz, 2) }},
		{"rdcn.rotor8_forward", func(sz sizes) (float64, float64) { return rungForward(sz, 8) }},
	} {
		ns, events := r.f(sz)
		ms.set(r.name+"_ns_per_frame", ns)
		ms.aux[r.name+"_events_per_frame"] = events
	}
	data, ack := rungTCP(sz, 0)
	ms.set("tcp.input_data_ns_per_seg", data)
	ms.set("tcp.input_ack_ns_per_seg", ack)
	_, sack := rungTCP(sz, 50)
	ms.set("tcp.input_sack_ns_per_seg", sack)
}

// selfTimers arms 1024 self-re-arming timers with distinct periods on the
// given loops (round-robin). Running them is the engine's floor cost: push,
// pop, dispatch, nothing else.
func selfTimers(loops []*sim.Loop) {
	for i := 0; i < 1024; i++ {
		loop := loops[i%len(loops)]
		period := timerPeriod + sim.Dur(i*7919%1024)*50
		var fn func()
		fn = func() { loop.After(period, fn) }
		loop.After(period, fn)
	}
}

// timerPeriod spaces the timers like the experiments space their events:
// per 19 µs lookahead window a hybrid run fires ≈55 events and the 8-rack
// rotor ≈1200; 1024 timers of 100-151 µs period fire ≈155.
const timerPeriod = 100 * sim.Microsecond

// timerHorizon is how far to run selfTimers for about n events (mean
// period ~125.6 µs over 1024 timers), and at least once round.
func timerHorizon(n int) sim.Time {
	return sim.Time(int64(n)*125600/1024) + sim.Time(2*timerPeriod)
}

func rungHeap(sz sizes) float64 {
	return bench(sz, func(n int) time.Duration {
		loop := sim.NewLoop(1)
		selfTimers([]*sim.Loop{loop})
		t0 := time.Now()
		loop.RunUntil(timerHorizon(n))
		d := time.Since(t0)
		return d * time.Duration(n) / time.Duration(loop.Fired()) // per n events exactly
	})
}

// rungSharded is rungHeap on the engine every experiment actually runs on:
// the same timers on the two rack lanes of a sharded loop at shards=1, with
// the lookahead the hybrid fabric gets (its shortest link delay, 19 µs).
func rungSharded(sz sizes) float64 {
	return bench(sz, func(n int) time.Duration {
		e := sim.NewSharded(1, 2, 1)
		e.SetLookahead(19 * sim.Microsecond)
		selfTimers([]*sim.Loop{e.RackLoop(0), e.RackLoop(1)})
		t0 := time.Now()
		e.RunUntil(timerHorizon(n))
		d := time.Since(t0)
		return d * time.Duration(n) / time.Duration(e.Fired())
	})
}

func jumboFrame() netem.Frame {
	seg := dataSegment()
	return netem.Frame{Wire: seg.Serialize(nil), Len: seg.WireLen()}
}

func rungVOQ(sz sizes) float64 {
	loop := sim.NewLoop(1)
	v := netem.NewVOQ(loop, 16, 0)
	f := jumboFrame()
	return bench(sz, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			v.Enqueue(f)
			v.Dequeue()
		}
		return time.Since(t0)
	})
}

// rungPipe pushes frames through a host-NIC pipe in bursts of 16 (a VOQ's
// worth) and runs the loop until each burst is delivered: serialization
// event, coalesced delay line, sink call.
func rungPipe(sz sizes) (ns, events float64) {
	loop := sim.NewLoop(1)
	delivered := 0
	p := &netem.Pipe{Loop: loop, Rate: 100 * sim.Gbps, Delay: sim.Microsecond, Coalesce: true,
		Out: func(netem.Frame) { delivered++ }}
	f := jumboFrame()
	ns = bench(sz, func(n int) time.Duration {
		t0 := time.Now()
		for sent := 0; sent < n; {
			for k := 0; k < 16 && sent < n; k++ {
				p.Send(f)
				sent++
			}
			loop.Run()
		}
		return time.Since(t0)
	})
	return ns, float64(loop.Fired()) / float64(delivered)
}

func rungBufPool(sz sizes) float64 {
	p := &netem.BufPool{}
	return bench(sz, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p.Put(p.Get(64))
		}
		return time.Since(t0)
	})
}

// dataSegment is an MSS-sized TDTCP data segment (TD_DATA_ACK option);
// ackSegment is a bare ACK with three SACK blocks, the smallest packet and
// the most numerous.
func dataSegment() *packet.Segment {
	return &packet.Segment{Src: rdcn.HostAddr(0, 0), Dst: rdcn.HostAddr(1, 0), TTL: 64, Proto: packet.ProtoTCP,
		TCP: packet.TCPHeader{SrcPort: 40000, DstPort: 40000, Seq: 1 << 20, Ack: 1, Window: 4 << 20,
			Flags: packet.FlagACK | packet.FlagPSH, PayloadLen: 8960,
			TDPresent: true, TDFlags: packet.TDFlagData | packet.TDFlagACK, DataTDN: 1, AckTDN: 1}}
}

func ackSegment() *packet.Segment {
	return &packet.Segment{Src: rdcn.HostAddr(1, 0), Dst: rdcn.HostAddr(0, 0), TTL: 64, Proto: packet.ProtoTCP,
		TCP: packet.TCPHeader{SrcPort: 40000, DstPort: 40000, Seq: 1, Ack: 1 << 20, Window: 4 << 20,
			Flags: packet.FlagACK, TDPresent: true, TDFlags: packet.TDFlagACK, AckTDN: 1,
			SACK: []packet.SACKBlock{{Start: 1<<20 + 8960, End: 1<<20 + 17920},
				{Start: 1<<20 + 26880, End: 1<<20 + 35840}, {Start: 1<<20 + 44800, End: 1<<20 + 53760}}}}
}

// Results the rungs have no other use for land here, so the compiler cannot
// discard the calls that produce them.
var (
	sinkBytes []byte
	sinkInt   int64
)

func rungSerialize(sz sizes, seg *packet.Segment) float64 {
	buf := make([]byte, 0, 128)
	return bench(sz, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			buf = seg.Serialize(buf[:0])
		}
		sinkBytes = buf
		return time.Since(t0)
	})
}

func rungParse(sz sizes, seg *packet.Segment) float64 {
	wire := seg.Serialize(nil)
	var dst packet.Segment
	dst.TCP.SACK = make([]packet.SACKBlock, 0, 4)
	return bench(sz, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := packet.Parse(wire, &dst); err != nil {
				panic(err) // the bench built this wire itself
			}
		}
		return time.Since(t0)
	})
}

// rungCC feeds one algorithm instance a stream of window-growing ACKs.
func rungCC(sz sizes, name string) float64 {
	mk, err := cc.NewFactory(name)
	if err != nil {
		panic(err)
	}
	return bench(sz, func(n int) time.Duration {
		alg := mk()
		ev := cc.AckEvent{Acked: 1, InFlight: 64, RTT: 100 * sim.Microsecond, SRTT: 100 * sim.Microsecond}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ev.Now += 2 * sim.Time(sim.Microsecond)
			if i%512 == 511 {
				// keep the window in the regime the experiments run in
				// (tens to hundreds of packets), not growing without bound
				alg.OnEnterRecovery(ev.Now, ev.InFlight)
				alg.OnRecoveryExit(ev.Now)
			}
			alg.OnAck(ev)
		}
		return time.Since(t0)
	})
}

// hop is one direction of the bench's wire between two connections: a FIFO
// of segment copies, each delivered hopDelay after it was sent. The wire has
// no rate limit, so a window travels as one clump that is sent at one
// instant and arrives at one instant; the hop arms one timer per instant and
// times the whole clump's Input calls with a single pair of clock reads (a
// pair costs more than one Input on some hosts).
type hop struct {
	loop     *sim.Loop
	dst      *tcp.Conn
	ring     []packet.Segment
	due      []sim.Time
	head, n  int
	armed    sim.Time // the instant the latest timer fires at
	fire     func()
	dropNth  int // drop every dropNth-th data segment (0 = none)
	dataSeen int
	spent    time.Duration // host time inside dst.Input
	calls    int
}

const hopDelay = 20 * sim.Microsecond

func newHop(loop *sim.Loop) *hop {
	h := &hop{loop: loop, ring: make([]packet.Segment, 8192), due: make([]sim.Time, 8192)}
	for i := range h.ring {
		h.ring[i].TCP.SACK = make([]packet.SACKBlock, 0, 4)
	}
	h.fire = h.deliver
	return h
}

func (h *hop) send(s *packet.Segment) {
	if h.dropNth > 0 && s.TCP.PayloadLen > 0 {
		if h.dataSeen++; h.dataSeen%h.dropNth == 0 {
			return
		}
	}
	if h.n == len(h.ring) {
		panic("benchmark: tcp rung ring overflow")
	}
	i := (h.head + h.n) % len(h.ring)
	slot := &h.ring[i]
	sack := slot.TCP.SACK[:0]
	*slot = *s
	slot.TCP.SACK = append(sack, s.TCP.SACK...)
	h.due[i] = h.loop.Now().Add(hopDelay)
	h.n++
	if h.armed != h.due[i] {
		h.armed = h.due[i]
		h.loop.After(hopDelay, h.fire)
	}
}

func (h *hop) deliver() {
	now := h.loop.Now()
	t0 := time.Now()
	for h.n > 0 && h.due[h.head] <= now {
		slot := &h.ring[h.head]
		h.head = (h.head + 1) % len(h.ring)
		h.n--
		h.calls++
		h.dst.Input(slot)
	}
	h.spent += time.Since(t0)
}

// connPair wires two fresh connections back to back over two hops on loop,
// starts an unbounded transfer from snd, and runs the handshake and the
// window ramp. cfg is called once per endpoint (policies are per connection).
func connPair(loop *sim.Loop, cfg func() tcp.Config) (snd *tcp.Conn, toRcv, toSnd *hop) {
	toRcv, toSnd = newHop(loop), newHop(loop)
	snd = tcp.NewConn(loop, cfg(), toRcv.send)
	rcv := tcp.NewConn(loop, cfg(), toSnd.send)
	snd.LocalAddr, snd.RemoteAddr, snd.LocalPort, snd.RemotePort = 1, 2, 1000, 2000
	rcv.LocalAddr, rcv.RemoteAddr, rcv.LocalPort, rcv.RemotePort = 2, 1, 2000, 1000
	toRcv.dst, toSnd.dst = rcv, snd
	rcv.Listen()
	snd.Connect(-1)
	loop.RunUntil(sim.Time(2 * sim.Millisecond))
	return snd, toRcv, toSnd
}

// rungTCP streams bulk data between two plain (CUBIC, single-path)
// connections, timing Conn.Input on the receiver (data segments in, ACKs
// out) and on the sender (ACKs in, window slides, new segments out). With
// dropNth > 0 every dropNth-th data segment is lost, so the sender's number
// is the SACK-scoreboard and retransmission path instead of the fast path.
func rungTCP(sz sizes, dropNth int) (dataNs, ackNs float64) {
	dataNs, ackNs = math.Inf(1), math.Inf(1)
	samples, span := rungSamples, 8*sim.Millisecond
	if sz.smoke {
		samples, span = 1, sim.Millisecond
	}
	for i := 0; i < samples; i++ {
		loop := sim.NewLoop(1)
		_, toRcv, toSnd := connPair(loop, func() tcp.Config { return tcp.Config{} })
		toRcv.dropNth = dropNth
		toRcv.spent, toRcv.calls, toSnd.spent, toSnd.calls = 0, 0, 0, 0
		loop.RunUntil(loop.Now().Add(span))
		dataNs = math.Min(dataNs, float64(toRcv.spent.Nanoseconds())/float64(toRcv.calls))
		ackNs = math.Min(ackNs, float64(toSnd.spent.Nanoseconds())/float64(toSnd.calls))
	}
	return dataNs, ackNs
}

// rungNotify measures one TDN switch of an established TDTCP connection
// with data in flight: Conn.Notify through the epoch gate into the policy's
// state swap and the transmit attempt that follows.
func rungNotify(sz sizes) float64 {
	loop := sim.NewLoop(1)
	snd, toRcv, _ := connPair(loop, func() tcp.Config {
		return tcp.Config{NumTDNs: 2, Policy: core.New(2, core.Options{})}
	})
	tdn := 0
	return bench(sz, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tdn ^= 1
			snd.Notify(tdn, 0) // epoch 0: no gate state to advance
			if toRcv.n > len(toRcv.ring)/2 {
				// the switch opened a window; let the wire drain outside
				// the clock so the ring never overflows
				d := time.Since(t0)
				loop.RunUntil(loop.Now().Add(100 * sim.Microsecond))
				t0 = time.Now().Add(-d)
			}
		}
		return time.Since(t0)
	})
}

// rungForward sends prebuilt jumbo segments host to host through the whole
// fabric with no TCP on top: NIC pipe, VOQ, drainer, circuit or packet
// path, delivery — on the two-rack hybrid over a plain loop, or on the
// 8-rack rotor over the cluster engine exactly as experiments wires it. A
// window of 12 frames per sending host is kept in flight.
func rungForward(sz sizes, racks int) (ns, events float64) {
	ns = bench(sz, func(n int) time.Duration {
		cfg := rdcn.DefaultConfig()
		cfg.HostsPerRack = 1
		loop := sim.NewLoop(1)
		runUntil, fired, senders := loop.RunUntil, loop.Fired, 1
		if racks > 2 {
			sc := experiments.MultiRack(racks)
			engine := sim.NewSharded(1, racks, 1)
			loop = engine.Control()
			runUntil, fired, senders = engine.RunUntil, engine.Fired, racks
			cfg.Racks, cfg.TDNs, cfg.Schedule, cfg.VOQCap, cfg.Cluster = racks, sc.TDNs, sc.Schedule, sc.VOQCap, engine
		}
		net, err := rdcn.New(loop, cfg)
		if err != nil {
			panic(err)
		}
		delivered := 0
		for _, r := range net.Racks {
			r.Hosts[0].Recv = func(netem.Frame) { delivered++ }
		}
		net.Start(sim.Time(math.MaxInt64 / 2))
		segs := make([]*packet.Segment, senders)
		for s := range segs {
			segs[s] = dataSegment()
			segs[s].Dst = rdcn.HostAddr((s+1)%racks, 0)
		}
		sent := 0
		now := sim.Time(0)
		t0 := time.Now()
		for delivered < n {
			for sent-delivered < 12*senders {
				for s := range segs {
					net.Racks[s].Hosts[0].Send(segs[s])
					sent++
				}
			}
			now = now.Add(20 * sim.Microsecond)
			runUntil(now)
		}
		d := time.Since(t0)
		events = float64(fired()) / float64(delivered)
		return d * time.Duration(n) / time.Duration(delivered)
	})
	return ns, events
}

func rungScheduleAt(sz sizes) float64 {
	sch := experiments.MultiRack(8).Schedule
	week := sim.Time(sch.Week())
	return bench(sz, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tdn, _, _ := sch.At(sim.Time(i) * 7919 % (64 * week))
			sinkInt += int64(tdn)
		}
		return time.Since(t0)
	})
}

// timeOptimalSeries repeats, with Run's exact arguments, the reference
// series Run computes for a config's measurement window.
func timeOptimalSeries(cfg experiments.RunConfig) time.Duration {
	week := cfg.Scenario.Schedule.Week()
	from := sim.Time(sim.Dur(cfg.WarmupWeeks) * week)
	to := from.Add(sim.Dur(cfg.MeasureWeeks) * week)
	t0 := time.Now()
	workload.OptimalSeries(cfg.Scenario.Schedule, cfg.Scenario.TDNs, from, to, 5*sim.Microsecond).Normalize()
	return time.Since(t0)
}

func rungOptimalSeries(sz sizes, weeks, samples int) float64 {
	cfg := figureRun(sz, 1)
	cfg.MeasureWeeks = weeks
	best := math.Inf(1)
	if sz.smoke {
		samples = 1
	}
	for i := 0; i < samples; i++ {
		best = math.Min(best, float64(timeOptimalSeries(cfg).Microseconds())/1e3)
	}
	return best
}

func rungFlowSize(sz sizes) float64 {
	dist := workload.WebSearch()
	rng := sim.NewLoop(1).Rand()
	return bench(sz, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sinkInt += dist.Sample(rng)
		}
		return time.Since(t0)
	})
}

func rungEmitFlight(sz sizes) float64 {
	tr := (*trace.Tracer)(nil).WithFlight(trace.NewFlight(trace.DefaultFlightLen, trace.DefaultFlightCats))
	return benchEmit(sz, tr)
}

func rungEmitJSONL(sz sizes) float64 {
	return benchEmit(sz, trace.New(io.Discard, trace.CatAll&^trace.CatSim))
}

func benchEmit(sz sizes, tr *trace.Tracer) float64 {
	return bench(sz, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if tr.Enabled(trace.CatVOQ) {
				tr.Emit(trace.CatVOQ, int64(i), "voq_enq", -1, 1, 7, 16, "r0q0")
			}
		}
		return time.Since(t0)
	})
}

func rungHist(sz sizes) float64 {
	h := trace.NewRegistry().Hist("bench.ns")
	return bench(sz, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			h.Record(int64(i&0xFFFF) << 4)
		}
		return time.Since(t0)
	})
}

// rungRunMin is the smallest legal Run: what experiments itself costs
// (engine, fabric, 16 flows, samplers, result assembly) before any week of
// simulation is paid for.
func rungRunMin(sz sizes) float64 {
	cfg := figureRun(sz, 1)
	cfg.WarmupWeeks, cfg.MeasureWeeks = 1, 1
	ns := bench(sz, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := experiments.Run(cfg); err != nil {
				panic(err)
			}
		}
		return time.Since(t0)
	})
	return ns / 1e6
}

// rungSweepSpeedup is the wall time of a small sweep at workers=1 over the
// same sweep at workers=min(2, nproc): what run-level parallelism buys.
func rungSweepSpeedup(sz sizes) float64 {
	base := figureRun(sz, 0)
	seeds := []int64{1, 2, 3, 4}
	if sz.smoke {
		seeds = seeds[:1]
	}
	cfgs := experiments.Matrix(base, []experiments.Variant{experiments.TDTCP, experiments.Cubic}, seeds)
	workers := 2
	if runtime.NumCPU() < 2 {
		workers = 1
	}
	samples := 3
	if sz.smoke {
		samples = 1
	}
	wall := func(w int) float64 {
		best := math.Inf(1)
		for i := 0; i < samples; i++ {
			t0 := time.Now()
			experiments.Sweep(cfgs, w)
			best = math.Min(best, time.Since(t0).Seconds())
		}
		return best
	}
	return wall(1) / wall(workers)
}

func rungSpecKey(sz sizes) float64 {
	spec := &serve.Spec{Variant: "dctcp", Racks: 4, Flows: 8, Seed: 7}
	ns := bench(sz, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			norm, err := spec.Normalize()
			if err != nil {
				panic(err)
			}
			sinkInt += int64(len(norm.Key()))
		}
		return time.Since(t0)
	})
	return ns / 1e3
}

// rungSubmitHit is a cache hit without HTTP: Server.Submit plus the result
// view of an already-completed spec. hit_latency_us_p50 minus this is what
// HTTP, JSON and the loopback cost.
func rungSubmitHit(sz sizes) float64 {
	srv := serve.New(serve.Config{Workers: 1, CacheCap: 4096, QueueDepth: 64})
	defer srv.Shutdown(10 * time.Second) //nolint:errcheck // idle server: nothing to drain
	spec := &serve.Spec{WarmupWeeks: 1, MeasureWeeks: 1}
	job, _, err := srv.Submit(spec)
	if err != nil {
		panic(err)
	}
	<-job.Done()
	ns := bench(sz, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			j, disp, err := srv.Submit(spec)
			if err != nil || disp != serve.DispCacheHit {
				panic(fmt.Sprintf("benchmark: submit of a cached spec: %v %v", disp, err))
			}
			srv.View(j, true)
		}
		return time.Since(t0)
	})
	return ns / 1e3
}

// runOverheads measures what each always-available observer costs on the
// figure-size TDTCP run, as interleaved A/B pairs (A then B, B then A, ...)
// so drift hits both sides alike. Reported against DESIGN §12's budgets,
// not gated: ten 30 ms pairs resolve a few percent, not tenths.
func runOverheads(sz sizes, ms *metricSet) {
	pairs := 10
	if sz.smoke {
		pairs = 1
	}
	overhead := func(with, without func(*experiments.RunConfig)) float64 {
		var a, b []float64
		one := func(mod func(*experiments.RunConfig)) float64 {
			cfg := figureRun(sz, 1)
			mod(&cfg)
			t0 := time.Now()
			if _, err := experiments.Run(cfg); err != nil {
				panic(err)
			}
			return time.Since(t0).Seconds()
		}
		for i := 0; i < pairs; i++ {
			if i%2 == 0 {
				a, b = append(a, one(with)), append(b, one(without))
			} else {
				b, a = append(b, one(without)), append(a, one(with))
			}
		}
		return (median(a) - median(b)) / median(b) * 100
	}
	nothing := func(*experiments.RunConfig) {}
	ms.set("trace.flight_overhead_pct", overhead(nothing,
		func(c *experiments.RunConfig) { c.DisableFlight = true }))
	ms.set("trace.hist_overhead_pct", overhead(
		func(c *experiments.RunConfig) { c.Metrics = trace.NewRegistry() }, nothing))
	ms.set("obs.meter_overhead_pct", overhead(
		func(c *experiments.RunConfig) { c.Meter = obs.NewMeter() }, nothing))
}

// attribute splits a sim workload's untraced wall time over the layers:
// each rung's ns/op times the number of those ops the traced pass counted.
// Rungs that run loop events (pipe, forward) have the engine's per-event
// cost taken out first, since share.sim_pct already charges every event;
// rdcn's rung additionally sheds the netem and packet work it contains, so
// what is left is the fabric's own. What no rung explains is
// share.unattributed_pct: connection set-up and teardown, the mux and its
// notify fan-out, cc, samplers, result assembly, GC.
func attribute(ms *metricSet, counts map[string]float64, workload string, wallSec float64) {
	wallNs := wallSec * 1e9
	clamp := func(v float64) float64 { return math.Max(0, v) }
	heap, engine := ms.get("sim.heap_ns_per_event"), ms.get("sim.sharded_ns_per_event")
	frames := counts["rdcn.frames_sent"]
	data := counts["tcp.data_segs"]
	acks := counts["tcp.ack_segs"]

	pipeSelf := clamp(ms.get("netem.pipe_ns_per_frame") - ms.aux["netem.pipe_events_per_frame"]*heap)
	fwd := ms.get("rdcn.forward_ns_per_frame") - ms.aux["rdcn.forward_events_per_frame"]*heap
	seriesMs := ms.get("workload.optimal_series_ms_w20")
	switch workload {
	case "rotor_websearch":
		fwd = ms.get("rdcn.rotor8_forward_ns_per_frame") - ms.aux["rdcn.rotor8_forward_events_per_frame"]*engine
	case "hybrid_tdtcp_long":
		seriesMs = ms.get("workload.optimal_series_ms_w512")
	}
	rdcnSelf := clamp(fwd - ms.get("packet.serialize_data_ns") - ms.get("netem.bufpool_ns_per_getput") -
		pipeSelf - ms.get("netem.voq_ns_per_frame"))

	ns := map[string]float64{
		"sim": counts["sim.events_fired"] * engine,
		"netem": counts["netem.voq_enq"]*ms.get("netem.voq_ns_per_frame") +
			frames*(pipeSelf+ms.get("netem.bufpool_ns_per_getput")),
		"packet": data*(ms.get("packet.serialize_data_ns")+ms.get("packet.parse_data_ns")) +
			acks*(ms.get("packet.serialize_ack_ns")+ms.get("packet.parse_ack_ns")),
		"tcp":  data*ms.get("tcp.input_data_ns_per_seg") + acks*ms.get("tcp.input_ack_ns_per_seg"),
		"core": counts["core.switches"] * ms.get("core.notify_ns_per_switch"),
		"rdcn": frames * rdcnSelf,
		// Run computes one reference series per call; RunWorkload none.
		"workload": counts["experiments.runs"]*seriesMs*1e6 +
			counts["workload.flows_started"]*ms.get("workload.fsize_sample_ns"),
		"trace": counts["flight.events"] * ms.get("trace.emit_flight_ns"),
	}
	total := 0.0
	for _, l := range shareLayers {
		total += ns[l]
	}
	// Rungs are measured alone and hot; summed they can overshoot a wall
	// time they were never part of. Scale them to fit rather than report a
	// negative remainder.
	scale := 1.0
	if total > wallNs {
		scale = wallNs / total
	}
	for _, l := range shareLayers {
		ms.set("share."+l+"_pct", ns[l]*scale/wallNs*100)
	}
	ms.set("share.unattributed_pct", clamp(wallNs-total)/wallNs*100)
}
