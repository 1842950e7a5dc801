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

// TestWorkloadRetiresFinishedFlows: what a TDN change costs a host must
// follow the flows open on it, not the flows it ever carried. In a traced
// 4-rack web-search run, a flow stops reacting to notifications at the first
// arrival after its FIN-ack, and at the horizon the notify sets hold exactly
// the endpoints of the flows not yet retired.
func TestWorkloadRetiresFinishedFlows(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.CatTCP|trace.CatTDN)
	res, err := RunWorkload(WorkloadConfig{Variant: TDTCP, Scenario: MultiRack(4), Load: 0.3,
		WarmupWeeks: 1, MeasureWeeks: 6, Tracer: tr})
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
	if res.flowsRetired < must || res.flowsRetired > res.FlowsCompleted {
		t.Errorf("%d flows retired, the trace says at least %d and at most %d", res.flowsRetired, must, res.FlowsCompleted)
	}
	if want := 2 * (res.FlowsStarted - res.flowsRetired); res.notifyWidth != want {
		t.Errorf("fan-out width at the horizon is %d endpoints, want %d = 2 x (%d started - %d retired); 2 x started is %d",
			res.notifyWidth, want, res.FlowsStarted, res.flowsRetired, 2*res.FlowsStarted)
	}
}

// TestRetiredFlowKeepsPortDropsDeadman: leaving the notify sets is all that
// retirement does to the data path. The ports stay bound, so the receiver
// still D-SACKs a retransmission that arrives late; and with notifications
// gone for good, an armed deadman is stopped instead of engaging forever.
func TestRetiredFlowKeepsPortDropsDeadman(t *testing.T) {
	rc := RunConfig{Variant: TDTCP, Scenario: MultiRack(4), WarmupWeeks: 1, MeasureWeeks: 40}
	rc.fillDefaults()
	rc.Flow.TDTCPOpts.DeadmanHorizon = defaultDeadmanHorizon(rc.Scenario.Schedule)
	h, err := newHarness(&rc, "mux lifecycle", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	mn := newMuxNet(h.net, h.slabs)
	const port = 1024
	f, err := mn.BuildFlow(0, 0, 1, 1, port, TDTCP, rc.Flow)
	if err != nil {
		t.Fatal(err)
	}
	h.addFlow(f, 0, 0)
	h.start()
	if got := mn.notifyWidth(); got != 2 {
		t.Fatalf("one TDTCP flow joined %d notify slots, want 2", got)
	}
	done := false
	f.Snd.OnDone = func(sim.Time) { done = true }
	f.Start(200 << 10)
	f.Snd.Close()
	week := rc.Scenario.Schedule.Week()
	h.engine.RunUntil(sim.Time(10 * week))
	if !done {
		t.Fatal("flow did not finish in 10 weeks")
	}

	mn.leave(f)
	if got := mn.notifyWidth(); got != 0 {
		t.Errorf("%d notify slots left after the flow retired, want 0", got)
	}
	sm, dm := mn.muxes[0][0], mn.muxes[1][1]
	if sm.conns[port] != f.Snd || dm.conns[port] != f.Rcv {
		t.Fatal("retiring a flow unbound its ports")
	}

	// A late copy of the first data segment, as a straggler from a VOQ would
	// arrive: the receiver must answer it (a D-SACK), not drop it.
	late := packet.Segment{
		Src: f.Snd.LocalAddr, Dst: f.Rcv.LocalAddr, TTL: 64, Proto: packet.ProtoTCP,
		TCP: packet.TCPHeader{SrcPort: port, DstPort: port, Flags: packet.FlagACK | packet.FlagPSH,
			Seq: f.Snd.AbsSeq(0), Ack: f.Rcv.SndNxt(), PayloadLen: 8960, Window: 4 << 20},
	}
	before := f.Rcv.Stats
	dm.recv(netem.Frame{Wire: late.Serialize(nil)})
	if f.Rcv.Stats.SegsSent != before.SegsSent+1 || f.Rcv.Stats.DSACKsSent != before.DSACKsSent+1 {
		t.Errorf("late segment to a retired receiver: SegsSent %d -> %d, DSACKsSent %d -> %d, want one D-SACK",
			before.SegsSent, f.Rcv.Stats.SegsSent, before.DSACKsSent, f.Rcv.Stats.DSACKsSent)
	}

	// Thirty more weeks of silence on both endpoints: notifications no longer
	// reach them, and the stopped deadman must not stand in.
	sndRcvd, rcvRcvd := f.Snd.Stats.NotifiesRcvd, f.Rcv.Stats.NotifiesRcvd
	h.engine.RunUntil(h.end)
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
	if _, _, _, err := h.finish(); err != nil {
		t.Errorf("conservation after the late segment's D-SACK: %v", err)
	}
}
