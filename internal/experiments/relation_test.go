package experiments

import (
	"testing"

	"github.com/rdcn-net/tdtcp/internal/rdcn"
)

// splitHybrid is the hybrid with its packet network split into two identical
// TDNs: TDN 2 has TDN 0's rate and delay and takes the last three of the six
// packet days, and the week is unchanged.
func splitHybrid(t *testing.T) Scenario {
	t.Helper()
	sched, err := rdcn.ParseSchedule("3x(0:180us,-:20us),3x(2:180us,-:20us),1:180us,-:20us")
	if err != nil {
		t.Fatal(err)
	}
	h := Hybrid()
	return Scenario{Name: "hybrid-split", TDNs: append(h.TDNs, h.TDNs[0]), Schedule: sched, VOQCap: h.VOQCap}
}

// TestIndistinguishableTDNIsInvisible is ROADMAP item 18's relation 1 on the
// hybrid: a TDN that no fabric parameter tells apart from another is invisible
// to a transport that keeps one state. Splitting the packet network into two
// identical TDNs leaves a single-state variant's goodput and VOQ mean
// bit-equal, on a 3+20-week figure cell. TDTCP is not held to it: it keeps a
// state per TDN, so the split halves each packet state's days, which is the
// cost §3 names (EXPERIMENTS.md records its row).
func TestIndistinguishableTDNIsInvisible(t *testing.T) {
	split := splitHybrid(t)
	for _, v := range []Variant{Cubic, DCTCP, ReTCP, ReTCPDyn, TDTCP} {
		run := func(s Scenario) *Result {
			res, err := Run(RunConfig{Variant: v, Scenario: s, WarmupWeeks: 3, MeasureWeeks: 20})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		two, three := run(Hybrid()), run(split)
		t.Logf("%-8s goodput %.6f -> %.6f Gbps, VOQ mean %.6f -> %.6f", v,
			two.GoodputGbps, three.GoodputGbps, two.VOQMean, three.VOQMean)
		if v == TDTCP {
			continue
		}
		if three.GoodputGbps != two.GoodputGbps || three.VOQMean != two.VOQMean {
			t.Errorf("%s sees the split: goodput %v -> %v Gbps, VOQ mean %v -> %v",
				v, two.GoodputGbps, three.GoodputGbps, two.VOQMean, three.VOQMean)
		}
	}
}
