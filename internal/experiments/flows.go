// Package experiments assembles full paper experiments: it wires transport
// variants (CUBIC, DCTCP, reTCP, MPTCP, TDTCP) onto the emulated RDCN,
// drives the §5.1 workload, and produces the series and distributions behind
// every figure in the evaluation (see DESIGN.md's experiment index).
package experiments

import (
	"fmt"

	"github.com/rdcn-net/tdtcp/internal/cc"
	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/mptcp"
	"github.com/rdcn-net/tdtcp/internal/netem"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// Variant names a transport under test, matching the paper's figure legends.
type Variant string

// The transports evaluated in the paper.
const (
	Cubic    Variant = "cubic"
	DCTCP    Variant = "dctcp"
	Reno     Variant = "reno"
	ReTCP    Variant = "retcp"
	ReTCPDyn Variant = "retcpdyn"
	MPTCP    Variant = "mptcp2f"
	TDTCP    Variant = "tdtcp"
)

// AllVariants lists every transport in the Fig. 7 legend order.
var AllVariants = []Variant{ReTCPDyn, TDTCP, ReTCP, DCTCP, Cubic, MPTCP}

// Flow is one sender/receiver pair between corresponding hosts of the two
// racks.
type Flow struct {
	Variant Variant

	Snd, Rcv   *tcp.Conn   // single-path and TDTCP
	MSnd, MRcv *mptcp.Conn // MPTCP
}

// Delivered returns in-order bytes delivered to the receiving application.
func (f *Flow) Delivered() int64 {
	if f.MRcv != nil {
		return f.MRcv.DeliveredBytes
	}
	return f.Rcv.Stats.BytesDelivered
}

// Start begins the transfer (bytes < 0 streams indefinitely).
func (f *Flow) Start(bytes int64) {
	if f.MSnd != nil {
		f.MSnd.Connect(bytes)
		return
	}
	f.Snd.Connect(bytes)
}

// SetTracer labels the flow's sender-side connection(s) with the given
// tracer and flow id (MPTCP subflows all share the flow id, distinguished by
// their TDN labels). Receivers are left unwired: sender-side events already
// describe the full data path, and the paper's figures are sender-centric.
func (f *Flow) SetTracer(tr *trace.Tracer, id int) {
	if f.MSnd != nil {
		for _, sub := range f.MSnd.Subflows() {
			sub.SetTracer(tr, id)
		}
		return
	}
	f.Snd.SetTracer(tr, id)
}

// SenderStats sums sender-side counters (over subflows for MPTCP).
func (f *Flow) SenderStats() tcp.Stats {
	if f.MSnd != nil {
		var agg tcp.Stats
		for _, sub := range f.MSnd.Subflows() {
			addStats(&agg, &sub.Stats)
		}
		return agg
	}
	return f.Snd.Stats
}

// ReceiverStats sums receiver-side counters.
func (f *Flow) ReceiverStats() tcp.Stats {
	if f.MRcv != nil {
		var agg tcp.Stats
		for _, sub := range f.MRcv.Subflows() {
			addStats(&agg, &sub.Stats)
		}
		return agg
	}
	return f.Rcv.Stats
}

func addStats(dst, src *tcp.Stats) {
	dst.SegsSent += src.SegsSent
	dst.SegsRcvd += src.SegsRcvd
	dst.BytesSent += src.BytesSent
	dst.BytesAcked += src.BytesAcked
	dst.Retransmits += src.Retransmits
	dst.FastRetransmits += src.FastRetransmits
	dst.RTOFires += src.RTOFires
	dst.TLPProbes += src.TLPProbes
	dst.ReorderEvents += src.ReorderEvents
	dst.ReorderPackets += src.ReorderPackets
	dst.LossMarks += src.LossMarks
	dst.FilteredMarks += src.FilteredMarks
	dst.BytesDelivered += src.BytesDelivered
	dst.DupSegsRcvd += src.DupSegsRcvd
	dst.DSACKsSent += src.DSACKsSent
	dst.Undos += src.Undos
	dst.RTTSamples += src.RTTSamples
	dst.RTTSamplesDropped += src.RTTSamplesDropped
	dst.NotifiesRcvd += src.NotifiesRcvd
	dst.NotifiesStale += src.NotifiesStale
	dst.NotifiesDup += src.NotifiesDup
}

// FlowOptions tweaks flow construction.
type FlowOptions struct {
	TDTCPOpts core.Options
	// Pacing sets the pacing gain; 0 keeps the per-variant default
	// (TDTCP flows pace at 2.0), negative disables pacing entirely.
	Pacing float64
	// ReTCPAlpha overrides the circuit-up ramp (0 = default).
	ReTCPAlpha float64
	// ReTCPReactDelay delays the plain-reTCP circuit-up ramp: without the
	// retcpdyn switch support, the sender learns the circuit state from
	// in-band packet marks, roughly one optical RTT after the change.
	// Default 40 µs. retcpdyn's advance notification is unaffected.
	ReTCPReactDelay sim.Dur
	// ReinjectDelay overrides the MPTCP scheduler's reinjection delay.
	ReinjectDelay sim.Dur
	// MPTCPSendBuf overrides the shared MPTCP send buffer size.
	MPTCPSendBuf int64
	// MinRTO and MaxRTO override the per-variant defaults (1 ms / 100 ms;
	// WAN scenarios need both raised).
	MinRTO, MaxRTO sim.Dur
	// PerTDNCC supplies a distinct CC algorithm per TDN for TDTCP flows
	// (§3.5's heterogeneous-CCA future work), e.g. {"cubic","dctcp"}.
	PerTDNCC []string
	// MSS overrides the default 8960-byte jumbo payload (e.g. 1460 for
	// WAN scenarios).
	MSS int
	// RcvBuf overrides the 4 MiB receive buffer (raise it for large-BDP
	// paths such as the satellite scenario).
	RcvBuf int
}

func ccFactoryFor(v Variant, opt FlowOptions) cc.Factory {
	switch v {
	case DCTCP:
		return func() cc.Algorithm { return cc.NewDCTCP() }
	case Reno:
		return func() cc.Algorithm { return cc.NewReno() }
	case ReTCP, ReTCPDyn:
		alpha := opt.ReTCPAlpha
		if alpha == 0 {
			alpha = cc.DefaultReTCPAlpha
		}
		return func() cc.Algorithm { return cc.NewReTCP(alpha) }
	default: // cubic, mptcp subflows, tdtcp (CUBIC in every TDN, §3.5)
		return func() cc.Algorithm { return cc.NewCubic() }
	}
}

// endpointConfig builds the tcp.Config of one endpoint, sender or receiver
// alike, of a non-MPTCP variant: CC factory, pacing, ECN, and (for TDTCP) the
// endpoint's own per-TDN state policy. Shared between the two-rack BuildFlow
// wiring and the multi-rack mux path.
func endpointConfig(net *rdcn.Network, v Variant, opt FlowOptions, pool *tcp.Pool) (tcp.Config, error) {
	ntdns := len(net.Cfg.TDNs)
	pacing := opt.Pacing
	if pacing < 0 {
		pacing = 0 // explicit opt-out
	} else if pacing == 0 && v == TDTCP {
		// §5.2 notes sender pacing as the remedy for TDTCP's initial burst
		// when the resumed (wide-open) window meets an empty pipe; with 16
		// perfectly synchronized simulated flows the burst is harsher than
		// on the paper's testbed, so TDTCP flows default to paced sending.
		pacing = 2.0
	}
	cfg := tcp.Config{CC: ccFactoryFor(v, opt), Pacing: pacing, Pool: pool,
		MinRTO: opt.MinRTO, MaxRTO: opt.MaxRTO, MSS: opt.MSS, RcvBuf: opt.RcvBuf}
	if v == DCTCP {
		cfg.ECN = true
	}
	if v != TDTCP {
		return cfg, nil
	}
	cfg.NumTDNs = ntdns
	for _, name := range opt.PerTDNCC {
		f, err := cc.NewFactory(name)
		if err != nil {
			return tcp.Config{}, err
		}
		cfg.CCPerState = append(cfg.CCPerState, f)
	}
	o := opt.TDTCPOpts
	if o.DeadmanHorizon > 0 && o.DeadmanSchedule == nil {
		sched := net.Cfg.Schedule
		o.DeadmanSchedule = func(t sim.Time) (int, bool) {
			tdn, ok, _ := sched.At(t)
			return tdn, ok
		}
	}
	cfg.Policy = core.New(ntdns, o)
	return cfg, nil
}

// BuildFlow wires one flow of the given variant between host i of rack 0
// (sender) and host i of rack 1 (receiver), registering receive and
// notification upcalls on both hosts. Each connection gets a private
// tcp.Pool.
func BuildFlow(net *rdcn.Network, i int, v Variant, opt FlowOptions) (*Flow, error) {
	return buildFlow(net, i, v, opt, nil)
}

// buildFlow is BuildFlow with the pool both endpoints draw their
// retransmission-queue storage from: the harness passes the run's (see
// harness.pool), nil gives each connection a private one.
func buildFlow(net *rdcn.Network, i int, v Variant, opt FlowOptions, pool *tcp.Pool) (*Flow, error) {
	if i < 0 || i >= net.Cfg.HostsPerRack {
		return nil, fmt.Errorf("experiments: host index %d out of range", i)
	}
	h0, h1 := net.Racks[0].Hosts[i], net.Racks[1].Hosts[i]
	loop := net.Loop
	ntdns := len(net.Cfg.TDNs)
	f := &Flow{Variant: v}

	if v == MPTCP {
		buildMPTCP(f, loop, h0, h1, ntdns, opt, pool)
		return f, nil
	}

	sndCfg, err := endpointConfig(net, v, opt, pool)
	if err != nil {
		return nil, err
	}
	rcvCfg, err := endpointConfig(net, v, opt, pool)
	if err != nil {
		return nil, err
	}

	f.Snd = tcp.NewConn(loop, sndCfg, func(s *packet.Segment) { h0.Send(s) })
	f.Rcv = tcp.NewConn(loop, rcvCfg, func(s *packet.Segment) { h1.Send(s) })
	f.Snd.LocalAddr, f.Snd.RemoteAddr = h0.Addr, h1.Addr
	f.Snd.LocalPort, f.Snd.RemotePort = 40000, 5000
	f.Rcv.LocalAddr, f.Rcv.RemoteAddr = h1.Addr, h0.Addr
	f.Rcv.LocalPort, f.Rcv.RemotePort = 5000, 40000
	f.Rcv.Listen()

	h0.Recv = inputAdapter(f.Snd)
	h1.Recv = inputAdapter(f.Rcv)
	h0.RecvBatch = batchRecv(h0.Recv)
	h1.RecvBatch = batchRecv(h1.Recv)

	switch v {
	case TDTCP:
		h0.NotifyTDN = func(tdn int, epoch uint32) { f.Snd.Notify(tdn, epoch) }
		h1.NotifyTDN = func(tdn int, epoch uint32) { f.Rcv.Notify(tdn, epoch) }
	case ReTCP, ReTCPDyn:
		react := opt.ReTCPReactDelay
		if react == 0 {
			react = 40 * sim.Microsecond
		}
		if v == ReTCPDyn {
			react = 0 // the switch notifies explicitly ahead of time
		}
		// Plain reTCP discovers circuit state from in-band packet marks:
		// roughly one optical RTT late on establishment and one packet RTT
		// late on teardown — during which it keeps sending at circuit rate
		// into the packet network. retcpdyn gets explicit advance signals.
		downDelay := 2 * react
		h0.NotifyTDN = func(tdn int, epoch uint32) {
			if tdn == 1 {
				if react > 0 {
					loop.After(react, func() { f.Snd.CircuitUp() })
				} else {
					f.Snd.CircuitUp()
				}
			} else {
				if downDelay > 0 {
					loop.After(downDelay, func() { f.Snd.CircuitDown() })
				} else {
					f.Snd.CircuitDown()
				}
			}
		}
		h0.NotifyPreChange = func(tdn int) {
			if tdn == 1 {
				f.Snd.CircuitUp() // retcpdyn: advance ramp with the buffer resize
			}
		}
	default:
		// Cubic, DCTCP, Reno, MPTCP: loss/ECN-driven variants take no
		// explicit TDN signal (MPTCP flows are built by BuildMPTCPFlow).
	}
	return f, nil
}

// inputAdapter parses frames into a reusable segment and feeds the conn.
func inputAdapter(c *tcp.Conn) func(netem.Frame) {
	seg := &packet.Segment{}
	seg.TCP.SACK = make([]packet.SACKBlock, 0, 4)
	return func(fr netem.Frame) {
		if err := packet.Parse(fr.Wire, seg); err != nil {
			return // corrupted frames are dropped silently, as on a real NIC
		}
		c.Input(seg)
	}
}

// batchRecv adapts a per-frame receive hook to the batched delivery upcall:
// one call from the fabric per (host, TDN) batch, one Input per segment
// inside, so the protocol sees the exact frame-at-a-time order.
func batchRecv(recv func(netem.Frame)) func([]netem.Frame, int) {
	return func(fs []netem.Frame, _ int) {
		for _, fr := range fs {
			recv(fr)
		}
	}
}

// subflowGate holds a subflow's outgoing segments at the host while the
// subflow's TDN is inactive: the paper's MPTCP "pins" subflows via the
// tdm_schd scheduler at both endpoints, so data AND acknowledgments of an
// inactive subflow wait in the host's send queue until that TDN returns
// (§2.2, §3.3 — the cause of MPTCP's flow-control stalls).
type subflowGate struct {
	host *rdcn.Host
	tdn  int
	cur  *int // host's current notified TDN
	held []*packet.Segment
}

func (g *subflowGate) send(s *packet.Segment) {
	if *g.cur != g.tdn {
		// The connection reuses the segment's storage after send returns
		// (the Conn.Out contract), so a held segment must be a deep copy.
		g.held = append(g.held, s.Clone())
		return
	}
	g.host.Send(s)
}

func (g *subflowGate) flush() {
	for _, s := range g.held {
		g.host.Send(s)
	}
	g.held = nil
}

func buildMPTCP(f *Flow, loop *sim.Loop, h0, h1 *rdcn.Host, ntdns int, opt FlowOptions, pool *tcp.Pool) {
	minRTO := opt.MinRTO
	if minRTO == 0 {
		// Stranded subflows must not melt down in RTO storms between their
		// TDN's days (the kernel's 200 ms floor, time-dilated, is several
		// optical weeks).
		minRTO = 10 * sim.Millisecond
	}
	sub := tcp.Config{CC: ccFactoryFor(MPTCP, opt), MinRTO: minRTO, MaxRTO: opt.MaxRTO,
		Pacing: opt.Pacing, MSS: opt.MSS, RcvBuf: opt.RcvBuf, Pool: pool}
	mcfg := mptcp.Config{NumSubflows: ntdns, Sub: sub, ReinjectDelay: opt.ReinjectDelay, SendBuf: opt.MPTCPSendBuf}

	cur0, cur1 := 0, 0
	outs0 := make([]func(*packet.Segment), ntdns)
	outs1 := make([]func(*packet.Segment), ntdns)
	gates0 := make([]*subflowGate, ntdns)
	gates1 := make([]*subflowGate, ntdns)
	for k := 0; k < ntdns; k++ {
		gates0[k] = &subflowGate{host: h0, tdn: k, cur: &cur0}
		gates1[k] = &subflowGate{host: h1, tdn: k, cur: &cur1}
		outs0[k] = gates0[k].send
		outs1[k] = gates1[k].send
	}
	f.MSnd = mptcp.New(loop, mcfg, outs0)
	f.MRcv = mptcp.New(loop, mcfg, outs1)
	for k := 0; k < ntdns; k++ {
		s, r := f.MSnd.Subflows()[k], f.MRcv.Subflows()[k]
		s.LocalAddr, s.RemoteAddr = h0.Addr, h1.Addr
		s.LocalPort, s.RemotePort = uint16(40000+k), uint16(5000+k)
		r.LocalAddr, r.RemoteAddr = h1.Addr, h0.Addr
		r.LocalPort, r.RemotePort = uint16(5000+k), uint16(40000+k)
	}
	f.MRcv.Listen()

	h0.Recv = mptcpInputAdapter(f.MSnd, 40000, ntdns)
	h1.Recv = mptcpInputAdapter(f.MRcv, 5000, ntdns)
	h0.RecvBatch = batchRecv(h0.Recv)
	h1.RecvBatch = batchRecv(h1.Recv)
	h0.NotifyTDN = func(tdn int, epoch uint32) {
		cur0 = tdn
		if tdn >= 0 && tdn < ntdns {
			gates0[tdn].flush()
		}
		f.MSnd.Notify(tdn, epoch)
	}
	h1.NotifyTDN = func(tdn int, epoch uint32) {
		cur1 = tdn
		if tdn >= 0 && tdn < ntdns {
			gates1[tdn].flush()
		}
		f.MRcv.Notify(tdn, epoch)
	}
}

// mptcpInputAdapter dispatches frames to the right subflow by destination
// port.
func mptcpInputAdapter(m *mptcp.Conn, basePort, ntdns int) func(netem.Frame) {
	seg := &packet.Segment{}
	seg.TCP.SACK = make([]packet.SACKBlock, 0, 4)
	return func(fr netem.Frame) {
		if err := packet.Parse(fr.Wire, seg); err != nil {
			return
		}
		k := int(seg.TCP.DstPort) - basePort
		if k < 0 || k >= ntdns {
			return
		}
		m.Subflows()[k].Input(seg)
	}
}
