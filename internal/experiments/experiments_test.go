package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// TestPaperOrdering is the repository's core integration assertion: with the
// default configuration, the goodput ordering of the paper's Fig. 7 legend
// must hold, along with the abstract's headline ratios (loosely bounded).
func TestPaperOrdering(t *testing.T) {
	goodput := map[Variant]float64{}
	for _, v := range AllVariants {
		res, err := Run(RunConfig{Variant: v, WarmupWeeks: 3, MeasureWeeks: 10})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		goodput[v] = res.GoodputGbps
		if res.GoodputGbps < res.PacketOnlyGbps*0.8 {
			t.Errorf("%s below 80%% of packet-only: %.2f", v, res.GoodputGbps)
		}
	}
	td := goodput[TDTCP]
	if td <= goodput[Cubic] || td <= goodput[DCTCP] {
		t.Errorf("tdtcp (%.2f) must beat cubic (%.2f) and dctcp (%.2f)",
			td, goodput[Cubic], goodput[DCTCP])
	}
	if ratio := td / goodput[Cubic]; ratio < 1.10 || ratio > 1.60 {
		t.Errorf("tdtcp/cubic = %.2f, expected in [1.10, 1.60] (paper 1.24)", ratio)
	}
	if ratio := td / goodput[MPTCP]; ratio < 1.15 {
		t.Errorf("tdtcp/mptcp = %.2f, expected > 1.15 (paper 1.41)", ratio)
	}
	if parity := td / goodput[ReTCPDyn]; parity < 0.85 || parity > 1.20 {
		t.Errorf("tdtcp/retcpdyn = %.2f, expected near parity", parity)
	}
	if goodput[MPTCP] >= goodput[Cubic] {
		t.Errorf("mptcp (%.2f) must trail cubic (%.2f)", goodput[MPTCP], goodput[Cubic])
	}
}

func TestScenarios(t *testing.T) {
	h := Hybrid()
	if h.TDNs[0].Rate != 10*sim.Gbps || h.TDNs[1].Rate != 100*sim.Gbps {
		t.Fatalf("hybrid rates: %+v", h.TDNs)
	}
	bw := BandwidthOnly()
	if bw.TDNs[0].Delay != bw.TDNs[1].Delay {
		t.Fatal("bandwidth-only must equalize delays")
	}
	lat := LatencyOnly(100 * sim.Gbps)
	if lat.TDNs[0].Rate != lat.TDNs[1].Rate {
		t.Fatal("latency-only must equalize rates")
	}
	if lat.TDNs[0].Delay <= lat.TDNs[1].Delay {
		t.Fatal("latency-only packet TDN must be slower")
	}
}

func TestRunResultShape(t *testing.T) {
	res, err := Run(RunConfig{Variant: TDTCP, WarmupWeeks: 1, MeasureWeeks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq.Len() == 0 || res.VOQ.Len() == 0 || res.Optimal().Len() == 0 {
		t.Fatal("missing series")
	}
	if res.Seq.T[0] != 0 || res.Seq.V[0] != 0 {
		t.Fatal("seq series not normalized")
	}
	if res.TDTCPSwitches == 0 {
		t.Fatal("tdtcp switches not counted")
	}
	// Two switches per flow per week (into and out of the optical day).
	want := uint64(16 * 2 * 3) // 3 weeks total (warmup+measure), 16 flows
	if res.TDTCPSwitches > want {
		t.Fatalf("switches = %d, want <= %d", res.TDTCPSwitches, want)
	}
	if res.Sender.SegsSent == 0 || res.Receiver.BytesDelivered == 0 {
		t.Fatal("stats not aggregated")
	}
}

// TestHeterogeneousCCAs: TDTCP with CUBIC on the packet TDN and DCTCP on the
// circuit TDN (§3.5) keeps its goodput, and the DCTCP TDN gets its signal:
// the run's queues mark and the DCTCP instance folds ECE-marked ACKs into its
// α (a CatCC "alpha" event with a nonzero mark fraction on TDN 1).
func TestHeterogeneousCCAs(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.CatCC)
	res, err := Run(RunConfig{
		Variant: TDTCP, WarmupWeeks: 1, MeasureWeeks: 3, Tracer: tr,
		Flow: FlowOptions{PerTDNCC: []string{"cubic", "dctcp"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if res.GoodputGbps < res.PacketOnlyGbps*0.8 {
		t.Fatalf("heterogeneous TDTCP collapsed: %.2f", res.GoodputGbps)
	}
	var windows, marked int
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ev trace.Event
		if err := trace.ParseLine(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Name != "alpha" {
			continue
		}
		if ev.S != "dctcp" || ev.TDN != 1 {
			t.Fatalf("an alpha event from %s on TDN %d; DCTCP runs on TDN 1 only", ev.S, ev.TDN)
		}
		windows++
		if ev.B > 0 {
			marked++
		}
	}
	if marked == 0 {
		t.Errorf("the DCTCP TDN closed %d observation windows and saw an ECE-marked ACK in none", windows)
	}
	if _, err := Run(RunConfig{
		Variant: TDTCP, WarmupWeeks: 1, MeasureWeeks: 1,
		Flow: FlowOptions{PerTDNCC: []string{"nope"}},
	}); err == nil {
		t.Fatal("unknown per-TDN CC accepted")
	}
}

// TestUnknownVariantRefused: a variant no transport answers to is an error
// from every entry point, not a CUBIC run under its name.
func TestUnknownVariantRefused(t *testing.T) {
	if _, err := Run(RunConfig{Variant: "foo", WarmupWeeks: 1, MeasureWeeks: 1, Flows: 2}); err == nil || !strings.Contains(err.Error(), `unknown variant "foo"`) {
		t.Errorf("Run: err %v, want unknown variant", err)
	}
	if _, err := RunWorkload(WorkloadConfig{Variant: "foo", Scenario: MultiRack(4), WarmupWeeks: 1, MeasureWeeks: 1}); err == nil || !strings.Contains(err.Error(), `unknown variant "foo"`) {
		t.Errorf("RunWorkload: err %v, want unknown variant", err)
	}
}

// TestShardsRefused: a Shards value other than 0 or 1 is an error from both
// entry points, naming the field, and never a panic.
func TestShardsRefused(t *testing.T) {
	if _, err := Run(RunConfig{Variant: TDTCP, WarmupWeeks: 1, MeasureWeeks: 1, Flows: 2, Shards: 2}); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Errorf("Run at Shards 2: err %v, want one naming Shards", err)
	}
	if _, err := RunWorkload(WorkloadConfig{Variant: TDTCP, Scenario: MultiRack(4), WarmupWeeks: 1, MeasureWeeks: 1, Shards: -1}); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Errorf("RunWorkload at Shards -1: err %v, want one naming Shards", err)
	}
}

func TestTDTCPAblationOrdering(t *testing.T) {
	full, err := Run(RunConfig{Variant: TDTCP, WarmupWeeks: 2, MeasureWeeks: 6})
	if err != nil {
		t.Fatal(err)
	}
	abl, err := Run(RunConfig{
		Variant: TDTCP, WarmupWeeks: 2, MeasureWeeks: 6,
		Flow: FlowOptions{TDTCPOpts: core.Options{DisableRelaxedReordering: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Sender.FilteredMarks == 0 {
		t.Fatal("full TDTCP never exercised the reordering filter")
	}
	if abl.Sender.FilteredMarks != 0 {
		t.Fatal("ablated TDTCP still filtered")
	}
}

func TestNotificationProfilesOrdered(t *testing.T) {
	opt, err := Run(RunConfig{Variant: TDTCP, WarmupWeeks: 2, MeasureWeeks: 8})
	if err != nil {
		t.Fatal(err)
	}
	unopt := rdcn.UnoptimizedNotify()
	u, err := Run(RunConfig{Variant: TDTCP, WarmupWeeks: 2, MeasureWeeks: 8, Notify: &unopt})
	if err != nil {
		t.Fatal(err)
	}
	if u.GoodputGbps >= opt.GoodputGbps {
		t.Fatalf("unoptimized notify (%.2f) not worse than optimized (%.2f)",
			u.GoodputGbps, opt.GoodputGbps)
	}
}

func TestFigureRunnersQuick(t *testing.T) {
	for id, run := range Figures {
		fig, err := run(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if fig.ID != id {
			t.Errorf("%s: fig.ID = %q", id, fig.ID)
		}
		out := fig.Render()
		if !strings.Contains(out, id) {
			t.Errorf("%s: render missing id", id)
		}
		if len(fig.Summary) == 0 {
			t.Errorf("%s: empty summary", id)
		}
	}
}

// TestBuildFlowsValidation: BuildFlows refuses more flows than the network has
// hosts for and the two-rack constructs on a rotor, the latter with the one
// error; and an MPTCP flow binds one port per TDN on each of its hosts, each
// port demultiplexed to its own subflow.
func TestBuildFlowsValidation(t *testing.T) {
	newNet := func(sc Scenario) *rdcn.Network {
		cfg := rdcn.DefaultConfig()
		cfg.Racks, cfg.HostsPerRack = sc.Racks, 2
		cfg.TDNs, cfg.Schedule = sc.TDNs, sc.Schedule
		net, err := rdcn.New(sim.NewLoop(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	if _, err := BuildFlows(newNet(Hybrid()), 3, Cubic, FlowOptions{}); err == nil {
		t.Error("3 flows accepted on 2 hosts per rack")
	}
	var msgs []string
	for _, v := range []Variant{MPTCP, ReTCP, ReTCPDyn} {
		_, err := BuildFlows(newNet(MultiRack(4)), 1, v, FlowOptions{})
		if err == nil {
			t.Fatalf("%s accepted on 4 racks", v)
		}
		msgs = append(msgs, strings.ReplaceAll(err.Error(), string(v), "V"))
	}
	if msgs[0] != msgs[1] || msgs[1] != msgs[2] {
		t.Errorf("the two-rack constructs are refused with different errors: %q", msgs)
	}

	// BuildFlows is newMuxNet and runFlow; the mux is needed to see the ports.
	net := newNet(Hybrid())
	mn, err := newMuxNet(net, new(runMem), MPTCP, FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := mn.runFlow(1)
	if err != nil {
		t.Fatal(err)
	}
	ntdns := len(net.Cfg.TDNs)
	for _, end := range []struct {
		m    *hostMux
		subs []*tcp.Conn
	}{{mn.muxes[0][1], f.MSnd.Subflows()}, {mn.muxes[1][1], f.MRcv.Subflows()}} {
		if len(end.m.conns) != ntdns || len(end.subs) != ntdns {
			t.Fatalf("host %x binds %d ports for %d subflows, want %d of each", end.m.host.Addr, len(end.m.conns), len(end.subs), ntdns)
		}
		for k, sub := range end.subs {
			if port := sub.LocalPort; end.m.conn(port) != sub || port != uint16(40001+k) {
				t.Errorf("host %x: subflow %d is on port %d, which maps to %p, not to it", end.m.host.Addr, k, port, end.m.conn(port))
			}
		}
	}
}

// TestMPTCPPinningIgnoresStaleNotifications: an MPTCP end's subflow pinning
// follows its scheduler, so a stale notification, arriving after a newer one,
// re-pins nothing. After (TDN 1, epoch 2) and then (TDN 0, epoch 1), the
// TDN-1 subflow's SYN reaches the host's send and the TDN-0 subflow's is held.
func TestMPTCPPinningIgnoresStaleNotifications(t *testing.T) {
	net, err := rdcn.New(sim.NewLoop(1), rdcn.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows, err := BuildFlows(net, 1, MPTCP, FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rack := net.Racks[0]
	rack.Hosts[0].NotifyTDN(1, 2)
	rack.Hosts[0].NotifyTDN(0, 1)
	sent := func() uint64 { s, _, _ := rack.FrameLedger(); return s }
	subs, before := flows[0].MSnd.Subflows(), sent()
	subs[1].Connect(0)
	if got := sent() - before; got != 1 {
		t.Errorf("the TDN-1 subflow's SYN: %d frames reached the host, want 1", got)
	}
	subs[0].Connect(0)
	if got := sent() - before; got != 1 {
		t.Errorf("the TDN-0 subflow's SYN went out while TDN 1 is active: %d frames reached the host, want 1", got)
	}
}

// TestReTCPCircuitIgnoresStaleNotifications: a reTCP sender reacts to its
// host's circuit signal behind its connection's epoch gate, so a stale
// notification, arriving after a newer one, cannot tear the circuit ramp down
// mid-day, and a replayed one ramps nothing twice. Plain reTCP reacts to a
// circuit-up 40 µs late and to a teardown 80 µs late.
func TestReTCPCircuitIgnoresStaleNotifications(t *testing.T) {
	for _, c := range []struct {
		name  string
		tdn   int    // delivered 50 µs after (1, epoch 2)...
		epoch uint32 // ...with this epoch
		up    int
		stale uint64
		dup   uint64
	}{
		{"stale", 0, 1, 1, 1, 0},
		{"dup", 1, 2, 1, 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			loop := sim.NewLoop(1)
			net, err := rdcn.New(loop, rdcn.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			flows, err := BuildFlows(net, 1, ReTCP, FlowOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			tr := trace.New(&buf, trace.CatCC)
			f := flows[0]
			f.SetTracer(tr, 0)
			f.Start(-1)
			loop.RunUntil(sim.Time(2 * sim.Millisecond))

			host := net.Racks[0].Hosts[0]
			host.NotifyTDN(1, 2)
			loop.RunUntil(loop.Now().Add(50 * sim.Microsecond))
			host.NotifyTDN(c.tdn, c.epoch)
			loop.RunUntil(loop.Now().Add(100 * sim.Microsecond))
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			up := strings.Count(buf.String(), `"name":"circuit_up"`)
			down := strings.Count(buf.String(), `"name":"circuit_down"`)
			if up != c.up || down != 0 {
				t.Errorf("circuit_up %d, circuit_down %d; want %d and 0", up, down, c.up)
			}
			if st := f.Snd.Stats; st.NotifiesRcvd != 2 || st.NotifiesStale != c.stale || st.NotifiesDup != c.dup {
				t.Errorf("notifies rcvd %d stale %d dup %d; want 2, %d, %d", st.NotifiesRcvd, st.NotifiesStale, st.NotifiesDup, c.stale, c.dup)
			}
		})
	}
}

// TestWorkloadPortsRecycle: the port sequence wraps past 65535 onto the ports
// released flows gave back, so a run is not limited to one port space of
// arrivals, and which port a flow gets changes nothing it does. The run that
// starts four ports short of the wrap must be the default run, flow for flow.
func TestWorkloadPortsRecycle(t *testing.T) {
	base := WorkloadConfig{Variant: TDTCP, WarmupWeeks: 1, MeasureWeeks: 6, Load: 0.3}
	want, err := RunWorkload(base)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := base
	wrapped.firstPort = maxPort - 3
	got, err := RunWorkload(wrapped)
	if err != nil {
		t.Fatalf("run whose ports wrap after 4 arrivals: %v", err)
	}
	if want.FlowsStarted < 40 {
		t.Fatalf("only %d arrivals: too few to wrap and go on", want.FlowsStarted)
	}
	if got.FlowsStarted != want.FlowsStarted || got.FlowsCompleted != want.FlowsCompleted ||
		got.GoodputGbps != want.GoodputGbps || got.Sender != want.Sender || got.Receiver != want.Receiver {
		t.Errorf("wrapped ports changed the run: started %d/%d completed %d/%d goodput %v/%v\nsender   %+v\n      vs %+v",
			got.FlowsStarted, want.FlowsStarted, got.FlowsCompleted, want.FlowsCompleted,
			got.GoodputGbps, want.GoodputGbps, got.Sender, want.Sender)
	}
}

func TestDeterministicRuns(t *testing.T) {
	r1, err := Run(RunConfig{Variant: TDTCP, WarmupWeeks: 1, MeasureWeeks: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(RunConfig{Variant: TDTCP, WarmupWeeks: 1, MeasureWeeks: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r1.GoodputGbps != r2.GoodputGbps || r1.Sender.SegsSent != r2.Sender.SegsSent {
		t.Fatalf("runs with identical seed diverge: %.6f/%d vs %.6f/%d",
			r1.GoodputGbps, r1.Sender.SegsSent, r2.GoodputGbps, r2.Sender.SegsSent)
	}
	r3, err := Run(RunConfig{Variant: TDTCP, WarmupWeeks: 1, MeasureWeeks: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Sender.SegsSent == r1.Sender.SegsSent && r3.GoodputGbps == r1.GoodputGbps {
		t.Log("different seeds produced identical results (suspicious but not fatal)")
	}
}
