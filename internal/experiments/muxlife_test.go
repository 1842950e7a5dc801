package experiments

import (
	"bytes"
	"sort"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/netem"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// TestWorkloadRetiresFinishedFlows: what a host pays and holds must follow the
// flows open on it, not the flows it ever carried. In a traced 4-rack
// web-search run, a flow stops reacting to notifications at the first arrival
// after its FIN-ack (it leaves), and is released at the first arrival at or
// after that plus the linger; at the horizon the notify sets hold exactly the
// endpoints of the flows that have not left, and the port maps, the pool and
// the harness exactly the flows not yet released. The endpoints of released
// flows are parked for reuse: every endpoint ever constructed is either
// attached to a pool or parked, and every flow's two endpoints were each
// either constructed or reopened.
func TestWorkloadRetiresFinishedFlows(t *testing.T) {
	dropSpareMem() // the census counts what this run built; a run of its shape would hand it endpoints
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.CatTCP|trace.CatTDN)
	cfg := WorkloadConfig{Variant: TDTCP, Scenario: MultiRack(4), Load: 0.3,
		WarmupWeeks: 1, MeasureWeeks: 6, Tracer: tr}
	res, err := RunWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	var arrivals []int64 // flow span begins: the instants retirement happens at
	ended := map[int]int64{}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev trace.Event
		if err := trace.ParseLine(line, &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
		if ev.Name == "flow" && ev.Ph == "B" {
			arrivals = append(arrivals, ev.TS)
		}
		if ev.Name == "flow" && ev.Ph == "E" {
			ended[ev.Flow] = ev.TS
		}
	}
	if len(arrivals) != res.FlowsStarted || len(ended) != res.FlowsCompleted {
		t.Fatalf("trace has %d arrivals and %d completions, result %d and %d",
			len(arrivals), len(ended), res.FlowsStarted, res.FlowsCompleted)
	}
	// retiredAt is the first arrival instant after flow's end span, if any.
	retiredAt := func(flow int) (int64, bool) {
		end, ok := ended[flow]
		if !ok {
			return 0, false
		}
		i := sort.Search(len(arrivals), func(i int) bool { return arrivals[i] > end })
		if i == len(arrivals) {
			return 0, false
		}
		return arrivals[i], true
	}

	live, late := 0, 0
	for _, ev := range events {
		if ev.Cat != "tdn" {
			continue
		}
		live++
		if at, ok := retiredAt(ev.Flow); ok && ev.TS > at {
			late++
			if late <= 3 {
				t.Errorf("flow %d still emits %s at %v: it ended at %v and was due to retire at %v",
					ev.Flow, ev.Name, sim.Time(ev.TS), sim.Time(ended[ev.Flow]), sim.Time(at))
			}
		}
	}
	if late > 0 {
		t.Errorf("%d of %d tdn records belong to flows already retired", late, live)
	}

	// Flows the trace says must have retired by the horizon (ended strictly
	// before a later arrival) bound the count from below; every completed
	// flow bounds it from above.
	must := 0
	for flow := range ended {
		if _, ok := retiredAt(flow); ok {
			must++
		}
	}
	if must < 20 {
		t.Fatalf("only %d flows retire in this run: too few to show anything", must)
	}
	life := res.life
	if life.retired < must || life.retired > res.FlowsCompleted {
		t.Errorf("%d flows retired, the trace says at least %d and at most %d", life.retired, must, res.FlowsCompleted)
	}
	if want := 2 * (res.FlowsStarted - life.retired); life.notifyWidth != want {
		t.Errorf("fan-out width at the horizon is %d endpoints, want %d = 2 x (%d started - %d retired); 2 x started is %d",
			life.notifyWidth, want, res.FlowsStarted, life.retired, 2*res.FlowsStarted)
	}

	// The third stage, from the same trace: a flow is released at the first
	// arrival at or after the instant it left plus the linger.
	linger := int64(cfg.Scenario.Schedule.Week()+cfg.Scenario.TDNs[0].Delay) * 2
	released := 0
	for flow := range ended {
		left, _ := retiredAt(flow)
		if left != 0 && left+linger <= arrivals[len(arrivals)-1] {
			released++
		}
	}
	if released < 10 {
		t.Fatalf("only %d flows are released in this run: too few to show anything", released)
	}
	if res.FlowsReleased != released {
		t.Errorf("%d flows released, the trace says %d", res.FlowsReleased, released)
	}
	held := res.FlowsStarted - res.FlowsReleased
	if life.portsBound != 2*held || life.liveConns != 2*held || life.flows != held {
		t.Errorf("at the horizon: %d ports bound, %d connections on the pool, %d flows tracked; want %d, %d, %d for %d started - %d released",
			life.portsBound, life.liveConns, life.flows, 2*held, 2*held, held, res.FlowsStarted, res.FlowsReleased)
	}
	if res.LateSegs != 0 {
		t.Errorf("%d segments arrived after their port was unbound: the linger is too short", res.LateSegs)
	}
	if life.built != life.liveConns+life.parked || life.built+life.reopened != 2*res.FlowsStarted {
		t.Errorf("%d endpoints built and %d reopened for %d flows; at the horizon %d are live and %d parked",
			life.built, life.reopened, res.FlowsStarted, life.liveConns, life.parked)
	}
	if life.reopened < released {
		t.Errorf("%d endpoints reopened with %d flows released: released endpoints are not being reused", life.reopened, released)
	}
}

// finishedMuxFlow runs one 200 kB TDTCP flow between two hosts of a 4-rack
// rotor to its FIN-ack, on a harness with 40 weeks to go and the deadman
// armed: the flow RunWorkload's arrival callback is about to retire.
func finishedMuxFlow(t *testing.T) (*harness, *muxNet, *Flow) {
	t.Helper()
	rc := RunConfig{Variant: TDTCP, Scenario: MultiRack(4), WarmupWeeks: 1, MeasureWeeks: 40}
	rc.fillDefaults()
	rc.Flow.TDTCPOpts.DeadmanHorizon = defaultDeadmanHorizon(rc.Scenario.Schedule)
	h, err := newHarness(&rc, "mux lifecycle", 2)
	if err != nil {
		t.Fatal(err)
	}
	mn, err := newMuxNet(h.net, h.mem, TDTCP, rc.Flow)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mn.BuildFlow(0, 0, 1, 1, muxTestPort)
	if err != nil {
		t.Fatal(err)
	}
	h.addFlow(f, 0)
	h.start()
	if got, _, _ := mn.census(); got != 2 {
		t.Fatalf("one TDTCP flow joined %d notify slots, want 2", got)
	}
	done := false
	f.Snd.OnDone = func(sim.Time) { done = true }
	f.Start(200 << 10)
	f.Snd.Close()
	h.loop.RunUntil(sim.Time(10 * rc.Scenario.Schedule.Week()))
	if !done {
		t.Fatal("flow did not finish in 10 weeks")
	}
	return h, mn, f
}

const muxTestPort = 1024

// lateSegment is a late copy of f's first data segment, as a straggler from a
// VOQ would arrive at the receiving host.
func lateSegment(f *Flow) netem.Frame {
	late := packet.Segment{
		Src: f.Snd.LocalAddr, Dst: f.Rcv.LocalAddr, TTL: 64, Proto: packet.ProtoTCP,
		TCP: packet.TCPHeader{SrcPort: muxTestPort, DstPort: muxTestPort, Flags: packet.FlagACK | packet.FlagPSH,
			Seq: f.Snd.AbsSeq(0).Uint32(), Ack: f.Rcv.SndNxt().Uint32(), PayloadLen: 8960, Window: 4 << 20},
	}
	return netem.Frame{Wire: late.Serialize(nil)}
}

// TestRetiredFlowKeepsPortDropsDeadman: leaving the notify sets is all that
// the second stage does to the data path. The ports stay bound through the
// linger, so the receiver still D-SACKs a retransmission that arrives late;
// and with notifications gone for good, an armed deadman is stopped instead
// of engaging forever.
func TestRetiredFlowKeepsPortDropsDeadman(t *testing.T) {
	h, mn, f := finishedMuxFlow(t)
	mn.leave(f)
	if got, _, _ := mn.census(); got != 0 {
		t.Errorf("%d notify slots left after the flow retired, want 0", got)
	}
	sm, dm := mn.muxes[0][0], mn.muxes[1][1]
	if sm.conn(muxTestPort) != f.Snd || dm.conn(muxTestPort) != f.Rcv {
		t.Fatal("retiring a flow unbound its ports")
	}

	// The receiver must answer a late segment (a D-SACK), not drop it.
	before := f.Rcv.Stats
	dm.recv(lateSegment(f))
	if f.Rcv.Stats.SegsSent != before.SegsSent+1 || f.Rcv.Stats.DSACKsSent != before.DSACKsSent+1 {
		t.Errorf("late segment to a retired receiver: SegsSent %d -> %d, DSACKsSent %d -> %d, want one D-SACK",
			before.SegsSent, f.Rcv.Stats.SegsSent, before.DSACKsSent, f.Rcv.Stats.DSACKsSent)
	}
	if dm.late != 0 {
		t.Errorf("%d late segments counted while the port was bound", dm.late)
	}

	// Thirty more weeks of silence on both endpoints: notifications no longer
	// reach them, and the stopped deadman must not stand in.
	sndRcvd, rcvRcvd := f.Snd.Stats.NotifiesRcvd, f.Rcv.Stats.NotifiesRcvd
	h.loop.RunUntil(h.end)
	if f.Snd.Stats.NotifiesRcvd != sndRcvd || f.Rcv.Stats.NotifiesRcvd != rcvRcvd {
		t.Error("a retired endpoint was still notified")
	}
	for _, c := range []struct {
		name string
		p    *core.TDTCP
	}{{"sender", f.Snd.Config().Policy.(*core.TDTCP)}, {"receiver", f.Rcv.Config().Policy.(*core.TDTCP)}} {
		if n := c.p.Stats().DeadmanEngaged; n != 0 {
			t.Errorf("%s deadman engaged %d times on a retired flow", c.name, n)
		}
	}
	if _, _, _, err := h.finish(byteLedger{written: -1}); err != nil {
		t.Errorf("conservation after the late segment's D-SACK: %v", err)
	}
}

// TestReleasedFlowDropsLateSegment: the third stage gives everything back.
// After release the ports are unbound, the pool counts no connection of the flow, the
// harness no longer tracks it, and its delivered bytes still count. A segment
// that arrives then is dropped and counted, never answered and never a panic;
// the released endpoints send nothing for the rest of the run; and the port
// can be bound again, which it could not while the flow lingered.
func TestReleasedFlowDropsLateSegment(t *testing.T) {
	h, mn, f := finishedMuxFlow(t)
	mn.leave(f)
	if _, err := mn.BuildFlow(0, 0, 2, 0, muxTestPort); err == nil {
		t.Fatal("a lingering flow's port was handed out again")
	}
	delivered := h.delivered()
	late := lateSegment(f)

	mn.release(f)
	h.dropFlow(f)
	if _, bound, _ := mn.census(); bound != 0 {
		t.Errorf("%d ports bound after release, want 0", bound)
	}
	if n := h.pool.LiveConns(); n != 0 {
		t.Errorf("the pool still counts %d live connections", n)
	}
	if len(h.flows) != 0 || h.delivered() != delivered || delivered != 200<<10 {
		t.Errorf("after release the harness tracks %d flows and %d delivered bytes, want 0 and %d",
			len(h.flows), h.delivered(), 200<<10)
	}

	dm := mn.muxes[1][1]
	before := f.Rcv.Stats
	dm.recv(late)
	dm.recv(late)
	if dm.late != 2 || f.Rcv.Stats != before {
		t.Errorf("two segments after release: %d counted late, receiver stats %+v -> %+v; want 2 and no change",
			dm.late, before, f.Rcv.Stats)
	}
	if _, _, late := mn.census(); late != 2 {
		t.Errorf("census counts %d late segments, want 2", late)
	}

	h.loop.RunUntil(h.end)
	if f.Snd.Stats.SegsSent+f.Rcv.Stats.SegsSent != before.SegsSent+f.Snd.Stats.SegsSent {
		t.Error("a released endpoint transmitted")
	}
	if _, _, _, err := h.finish(byteLedger{written: -1}); err != nil {
		t.Errorf("conservation after release: %v", err)
	}
	if _, err := mn.BuildFlow(0, 0, 2, 0, muxTestPort); err != nil {
		t.Errorf("binding a released port again: %v", err)
	}
}

// TestWorkloadMemoryFollowsOpenFlows: what a workload run holds is a function
// of the offered load, not of its length. At equal load a run four times as
// long starts about four times the flows, yet binds no more ports at its peak
// than twice the short run's peak; and at either horizon the ports bound, the
// connections on the pool and the flows tracked are those of the flows open or
// lingering, each within twice that count.
func TestWorkloadMemoryFollowsOpenFlows(t *testing.T) {
	run := func(weeks int) *WorkloadResult {
		res, err := RunWorkload(WorkloadConfig{Variant: TDTCP, Scenario: MultiRack(4), Load: 0.3,
			WarmupWeeks: 1, MeasureWeeks: weeks - 1, MaxFlows: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		live := res.FlowsStarted - res.FlowsReleased // open + lingering
		if l := res.life; l.portsBound > 2*live || l.liveConns > 2*live || l.flows > 2*live {
			t.Errorf("%d weeks: %d ports bound, %d live connections, %d flows tracked at the horizon, with %d flows open or lingering",
				weeks, l.portsBound, l.liveConns, l.flows, live)
		}
		if res.LateSegs != 0 {
			t.Errorf("%d weeks: %d late segments", weeks, res.LateSegs)
		}
		return res
	}
	short, long := run(20), run(80)
	if long.FlowsStarted < 3*short.FlowsStarted {
		t.Fatalf("the long run started %d flows, the short one %d: not the same load", long.FlowsStarted, short.FlowsStarted)
	}
	if long.PortsBoundMax > 2*short.PortsBoundMax {
		t.Errorf("peak ports bound: %d over 80 weeks, %d over 20; held state grew with the run", long.PortsBoundMax, short.PortsBoundMax)
	}
	if held := long.FlowsStarted - long.FlowsReleased; 4*held > long.FlowsStarted {
		t.Errorf("the long run still holds %d of its %d flows at the horizon", held, long.FlowsStarted)
	}
}
