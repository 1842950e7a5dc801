// Quickstart: one TDTCP flow on the paper's default hybrid RDCN.
//
// Builds the two-rack network (10 Gbps packet TDN + 100 Gbps optical TDN,
// 6:1 schedule), runs a single long-lived TDTCP flow for 20 optical weeks,
// and prints what the per-TDN state machinery learned.
package main

import (
	"fmt"

	tdtcp "github.com/rdcn-net/tdtcp"
)

func main() {
	loop := tdtcp.NewLoop(42)

	cfg := tdtcp.DefaultNetworkConfig()
	cfg.HostsPerRack = 1 // a single flow gets the fabric to itself
	net, err := tdtcp.NewNetwork(loop, cfg)
	if err != nil {
		panic(err)
	}

	flow, err := tdtcp.BuildFlow(net, 0, tdtcp.TDTCP, tdtcp.FlowOptions{})
	if err != nil {
		panic(err)
	}

	weeks := 20
	end := tdtcp.Time(tdtcp.Duration(weeks) * cfg.Schedule.Week())
	net.Start(end)
	flow.Start(-1) // stream indefinitely
	loop.RunUntil(end)

	delivered := flow.Delivered()
	gbps := float64(delivered) * 8 / (float64(end) / 1e9) / 1e9
	fmt.Printf("ran %d optical weeks (%.1f ms simulated, %d events)\n",
		weeks, end.Microseconds()/1000, loop.Fired())
	fmt.Printf("delivered %.1f MB -> %.2f Gbps (optimal %.2f, packet-only %.2f)\n",
		float64(delivered)/1e6, gbps,
		tdtcp.OptimalGbps(cfg.Schedule, cfg.TDNs), float64(cfg.TDNs[0].Rate)/1e9)

	fmt.Println("\nper-TDN path state (the paper's §3.1 duplicated variables):")
	for i, st := range flow.Snd.States() {
		fmt.Printf("  TDN %d: cwnd=%5.1f pkts  ssthresh=%7.1f  srtt=%8v  rto=%8v  ca=%v\n",
			i, st.Cwnd(), st.CC.Ssthresh(), st.SRTT, st.RTO, st.CA)
	}

	s := flow.Snd.Stats
	fmt.Printf("\nsender: %d segs, %d retransmits (%d RTOs), %d reorder events\n",
		s.SegsSent, s.Retransmits, s.RTOFires, s.ReorderEvents)
	fmt.Printf("TDTCP filtered %d cross-TDN loss candidates; dropped %d mixed RTT samples\n",
		s.FilteredMarks, s.RTTSamplesDropped)
}
