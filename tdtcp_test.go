package tdtcp

import (
	"strings"
	"testing"
)

func TestQuickstartFacade(t *testing.T) {
	loop := NewLoop(1)
	net, err := NewNetwork(loop, DefaultNetworkConfig())
	if err != nil {
		t.Fatal(err)
	}
	flow, err := BuildFlow(net, 0, TDTCP, FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	end := Time(4 * Millisecond)
	net.Start(end)
	flow.Start(-1)
	loop.RunUntil(end)
	if flow.Delivered() == 0 {
		t.Fatal("no bytes delivered")
	}
	if !flow.Snd.TDEnabled() {
		t.Fatal("TDTCP not negotiated")
	}
}

func TestFacadeRun(t *testing.T) {
	res, err := Run(RunConfig{Variant: Cubic, WarmupWeeks: 1, MeasureWeeks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.GoodputGbps <= 0 || res.Seq.Len() == 0 || res.VOQ.Len() == 0 {
		t.Fatalf("incomplete result: %+v", res.GoodputGbps)
	}
	if res.OptimalGbps <= res.PacketOnlyGbps {
		t.Fatal("reference rates inverted")
	}
	// Two measured weeks fit inside PlotWeeks, so the series is every sample
	// and the running summary must be its mean and max to the bit.
	if res.VOQMean != res.VOQ.Mean() || res.VOQMax != res.VOQ.Max() || res.VOQMax == 0 {
		t.Fatalf("VOQMean/VOQMax = %v/%v, the series gives %v/%v", res.VOQMean, res.VOQMax, res.VOQ.Mean(), res.VOQ.Max())
	}
}

func TestFacadeVariantsComplete(t *testing.T) {
	if len(AllVariants) != 6 {
		t.Fatalf("AllVariants = %v", AllVariants)
	}
	for _, id := range []string{"fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig13", "fig14", "headline", "ablation"} {
		if Figures[id] == nil {
			t.Fatalf("missing figure runner %s", id)
		}
	}
}

func TestFacadeFigureQuick(t *testing.T) {
	fig, err := Fig2(FigureOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := fig.Render()
	for _, want := range []string{"fig2", "optimal", "cubic", "mptcp2f", "packet only"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if len(fig.Seq) != 4 {
		t.Fatalf("fig2 series = %d, want optimal+cubic+mptcp+packetonly", len(fig.Seq))
	}
}

func TestAnalyticReferences(t *testing.T) {
	sch := HybridWeek(6, 180*Microsecond, 20*Microsecond)
	tdns := []TDNParams{
		{Rate: 10 * Gbps, Delay: 49 * Microsecond},
		{Rate: 100 * Gbps, Delay: 19 * Microsecond},
	}
	week := Time(sch.Week())
	if OptimalBytes(sch, tdns, week) <= PacketOnlyBytes(10*Gbps, week) {
		t.Fatal("optimal below packet-only")
	}
	if g := OptimalGbps(sch, tdns); g < 20 || g > 21 {
		t.Fatalf("optimal Gbps = %v", g)
	}
}

// TestFacadeMatchesRun: the library path and Run are one wiring. A network
// built by hand through the facade — NewLoop, NewNetwork with the hybrid
// scenario's parameters, 16 BuildFlow, Start — delivers, byte for byte, what
// Run delivers for the same seed and horizon.
func TestFacadeMatchesRun(t *testing.T) {
	const warmup, measure, flows = 3, 20, 16
	for _, v := range []Variant{TDTCP, Cubic} {
		res, err := Run(RunConfig{Variant: v, Flows: flows, WarmupWeeks: warmup, MeasureWeeks: measure, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}

		sc := HybridScenario()
		loop := NewLoop(1)
		cfg := DefaultNetworkConfig()
		cfg.HostsPerRack = flows
		cfg.TDNs, cfg.Schedule, cfg.VOQCap = sc.TDNs, sc.Schedule, sc.VOQCap
		cfg.MarkThresh = res.Cfg.MarkThresh
		net, err := NewNetwork(loop, cfg)
		if err != nil {
			t.Fatal(err)
		}
		built := make([]*Flow, flows)
		for i := range built {
			if built[i], err = BuildFlow(net, i, v, FlowOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		end := Time((warmup + measure) * sc.Schedule.Week())
		net.Start(end)
		var delivered int64
		for _, f := range built {
			f.Start(-1)
		}
		loop.RunUntil(end)
		for _, f := range built {
			delivered += f.Delivered()
		}
		if delivered == 0 || delivered != res.Receiver.BytesDelivered {
			t.Errorf("%s: the facade delivered %d bytes, Run %d", v, delivered, res.Receiver.BytesDelivered)
		}
	}
}
