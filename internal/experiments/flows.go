// Package experiments assembles full paper experiments: it wires transport
// variants (CUBIC, DCTCP, reTCP, MPTCP, TDTCP) onto the emulated RDCN,
// drives the §5.1 workload, and produces the series and distributions behind
// every figure in the evaluation (see DESIGN.md's experiment index).
package experiments

import (
	"fmt"
	"reflect"
	"slices"

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

// CheckVariant is the one statement of which transport runs where: Run,
// BuildFlows, RunWorkload and serve's Spec.Normalize all ask it before
// building anything. racks is the fabric's rack count (0 is the two-rack
// hybrid), and workload says the flows are RunWorkload's open-loop
// arrivals. The single-path variants run anywhere. MPTCP and the reTCP
// variants are two-rack constructs: subflow pinning and the
// circuit-up/down signal are defined against the hybrid, and the rotor
// fabric has no single "circuit" for a host to react to.
func CheckVariant(v Variant, racks int, workload bool) error {
	switch v {
	case Cubic, DCTCP, Reno, TDTCP:
		return nil
	case MPTCP, ReTCP, ReTCPDyn:
		if workload {
			return fmt.Errorf("experiments: variant %s is not supported by RunWorkload", v)
		}
		if racks > 2 {
			return fmt.Errorf("experiments: variant %s supports only 2 racks", v)
		}
		return nil
	default:
		return fmt.Errorf("experiments: unknown variant %q", v)
	}
}

// Flow is one sender/receiver pair between two hosts of a network, wired
// through the hosts' muxes (see muxNet.BuildFlow).
type Flow struct {
	Variant Variant

	Snd, Rcv   *tcp.Conn   // single-path and TDTCP
	MSnd, MRcv *mptcp.Conn // MPTCP

	ends    [2]flowEnd   // the sender's end and the receiver's
	pair    [2]*tcp.Conn // a single-path flow's Snd and Rcv: its two ends' conns
	arrival arrival      // RunWorkload's record of the flow's current life
}

// Delivered returns in-order bytes delivered to the receiving application.
func (f *Flow) Delivered() int64 { return f.ends[1].sock.Delivered() }

// Start begins the transfer (bytes < 0 streams indefinitely).
func (f *Flow) Start(bytes int64) { f.ends[0].sock.Connect(bytes) }

// SetTracer labels the flow's sender-side connection(s) with the given
// tracer and flow id (MPTCP subflows all share the flow id, distinguished by
// their TDN labels). Receivers are left unwired: sender-side events already
// describe the full data path, and the paper's figures are sender-centric.
func (f *Flow) SetTracer(tr *trace.Tracer, id int) {
	for _, c := range f.ends[0].conns {
		c.SetTracer(tr, id)
	}
}

// SenderStats sums sender-side counters (over subflows for MPTCP).
func (f *Flow) SenderStats() tcp.Stats { return f.ends[0].stats() }

// ReceiverStats sums receiver-side counters.
func (f *Flow) ReceiverStats() tcp.Stats { return f.ends[1].stats() }

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

// tdtcpPacing is the pacing gain of TDTCP endpoints; every other variant
// sends unpaced. §5.2 notes sender pacing as the remedy for TDTCP's initial
// burst when the resumed (wide-open) window meets an empty pipe; with 16
// perfectly synchronized simulated flows the burst is harsher than on the
// paper's testbed, so TDTCP flows pace.
const tdtcpPacing = 2.0

// retcpReactDelay delays the plain-reTCP circuit-up ramp: without the
// retcpdyn switch support, the sender learns the circuit state from in-band
// packet marks, roughly one optical RTT after the change. retcpdyn's advance
// notification is unaffected.
const retcpReactDelay = 40 * sim.Microsecond

// ccName is the cc package's name for the congestion control of variant v's
// endpoints: CUBIC for MPTCP subflows and for TDTCP in every TDN FlowOptions
// does not give its own (§3.5).
func ccName(v Variant) string {
	switch v {
	case DCTCP:
		return "dctcp"
	case Reno:
		return "reno"
	case ReTCP, ReTCPDyn:
		return "retcp"
	default:
		return "cubic"
	}
}

// needsECN reports whether an endpoint of variant v under opt runs a
// congestion control that needs ECN (cc.NeedsECN), its own or, for TDTCP, a
// per-TDN one: such an endpoint negotiates ECN, and its run's queues mark
// (the MarkThresh default of Run and RunWorkload).
func needsECN(v Variant, opt FlowOptions) bool {
	return cc.NeedsECN(ccName(v)) || v == TDTCP && slices.ContainsFunc(opt.PerTDNCC, cc.NeedsECN)
}

// mptcpMinRTO is the MPTCP subflows' MinRTO unless FlowOptions sets one:
// stranded subflows must not melt down in RTO storms between their TDN's days
// (the kernel's 200 ms floor, time-dilated, is several optical weeks).
const mptcpMinRTO = 10 * sim.Millisecond

// endpointConfig builds the tcp.Config every endpoint, sender or receiver
// alike, of variant v under opt shares on a fabric of tdns TDNs — for MPTCP,
// every subflow: CC factories, pacing and ECN. A TDTCP endpoint adds its own
// policy.
func endpointConfig(v Variant, tdns int, opt FlowOptions, pool *tcp.Pool) (tcp.Config, error) {
	mk, err := cc.NewFactory(ccName(v))
	if err != nil {
		return tcp.Config{}, err
	}
	cfg := tcp.Config{CC: mk, ECN: needsECN(v, opt), Pool: pool,
		MinRTO: opt.MinRTO, MaxRTO: opt.MaxRTO, MSS: opt.MSS, RcvBuf: opt.RcvBuf}
	if v == MPTCP && cfg.MinRTO == 0 {
		cfg.MinRTO = mptcpMinRTO
	}
	if v != TDTCP {
		return cfg, nil
	}
	cfg.Pacing = tdtcpPacing
	cfg.NumTDNs = tdns
	for _, name := range opt.PerTDNCC {
		f, err := cc.NewFactory(name)
		if err != nil {
			return tcp.Config{}, err
		}
		cfg.CCPerState = append(cfg.CCPerState, f)
	}
	return cfg, nil
}

// listener is what a host's TDN-change notification is fanned out to: a
// flow's end holds one when its variant takes the signal, its socket (a TDTCP
// endpoint or an MPTCP one) or a reTCP sender (*retcpSender).
type listener interface {
	Notify(tdn int, epoch uint32)
}

// hostMux is one host's transport stack: it demultiplexes the host's frames
// to its connections by TCP destination port, and fans TDN-change
// notifications out to the host's listeners. Every flow is wired through the
// muxes of its two hosts, whether a host carries one connection (a Run on the
// two-rack testbed) or many (a workload).
//
// An endpoint's two memberships have different lifetimes. Its place in notify
// — the §3.2 "every TDTCP socket on the host" set — begins at
// muxNet.BuildFlow and ends at muxNet.leave, so what a TDN change costs a
// host follows the flows open on it. Its port is bound in conns by BuildFlow
// and outlives leave by a linger, TCP's TIME_WAIT: a receiver must still
// (D-)SACK a retransmission that arrives after the flow completed. At
// muxNet.release the port is unbound and the connection's queue entries go
// back to the run's pool, so what a host holds follows the flows open or
// lingering on it, not the flows it ever carried. A segment for an unbound port is
// dropped and counted, as a host does after TIME_WAIT. The released flow
// itself is parked whole for a later arrival to reopen (runMem.parked).
//
// The port table is looked up, never ranged over, and notify keeps join
// order (fan-out order is trace order), so event order stays deterministic.
type hostMux struct {
	host   *rdcn.Host
	send   func(*packet.Segment) // host.Send, bound once: the Out of every endpoint here
	seg    packet.Segment
	conns  []portConn // the bound ports, sorted by port: a binary search finds one
	notify []listener
	late   uint64 // segments dropped for want of a bound port
}

// portConn is one bound port of a host and the connection it demultiplexes to.
type portConn struct {
	port uint16
	c    *tcp.Conn
}

func newHostMux(host *rdcn.Host) *hostMux {
	m := &hostMux{host: host, send: host.Send}
	m.seg.TCP.SACK = make([]packet.SACKBlock, 0, 4)
	return m
}

// find returns the index in conns at which port is bound, or would be.
func (m *hostMux) find(port uint16) (int, bool) {
	lo, hi := 0, len(m.conns)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); m.conns[mid].port < port {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.conns) && m.conns[lo].port == port
}

// conn returns the connection bound to port, or nil.
func (m *hostMux) conn(port uint16) *tcp.Conn {
	if i, ok := m.find(port); ok {
		return m.conns[i].c
	}
	return nil
}

// bind binds a free port to c.
func (m *hostMux) bind(port uint16, c *tcp.Conn) {
	i, _ := m.find(port)
	m.conns = slices.Insert(m.conns, i, portConn{port, c})
}

// unbind frees a bound port.
func (m *hostMux) unbind(port uint16) {
	if i, ok := m.find(port); ok {
		m.conns = slices.Delete(m.conns, i, i+1)
	}
}

func (m *hostMux) recv(fr netem.Frame) {
	if err := packet.Parse(fr.Wire, &m.seg); err != nil {
		return // corrupted frames are dropped silently, as on a real NIC
	}
	c := m.conn(m.seg.TCP.DstPort)
	if c == nil {
		m.late++
		return
	}
	c.Input(&m.seg)
}

func (m *hostMux) notifyTDN(tdn int, epoch uint32) {
	for _, l := range m.notify {
		l.Notify(tdn, epoch)
	}
}

// notifyPreChange passes the retcpdyn advance circuit-up signal to the host's
// reTCP senders.
func (m *hostMux) notifyPreChange(tdn int) {
	for _, l := range m.notify {
		if s, ok := l.(*retcpSender); ok {
			s.preChange(tdn)
		}
	}
}

// leave takes l out of the notify set, keeping the others in join order.
func (m *hostMux) leave(l listener) {
	if i := slices.Index(m.notify, l); i >= 0 {
		m.notify = slices.Delete(m.notify, i, i+1)
	}
}

// muxNet overlays a hostMux on every host of a network and is the one way
// flows are wired onto it, between arbitrary rack/host pairs. Every flow of
// one muxNet is of one variant with one set of FlowOptions, which is what
// makes a released flow fit the next one.
type muxNet struct {
	net     *rdcn.Network
	variant Variant
	opt     FlowOptions
	mem     *runMem      // its pool holds every endpoint's queue entries, its parked list the released flows
	cfg     tcp.Config   // what every endpoint, or MPTCP subflow, is built from (endpointConfig)
	conns   int          // connections per end: 1, or an MPTCP subflow per TDN
	muxes   [][]*hostMux // [rack][host]
	// built and reopened count the endpoints constructed and the times one
	// was reopened: two per flow between them.
	built, reopened int
	// noReuse makes every arrival construct its flow: the reference this
	// package's tests hold reuse against.
	noReuse bool
}

// newMuxNet takes over every host's upcalls: frames, TDN-change
// notifications and the retcpdyn advance signal all go through the host's mux.
// Its endpoints draw on mem's pool, and it reopens the flows mem has parked
// when they were built for the same variant, TDN count and FlowOptions;
// otherwise they are dropped. An unknown congestion control in opt is an
// error.
func newMuxNet(net *rdcn.Network, mem *runMem, v Variant, opt FlowOptions) (*muxNet, error) {
	tdns := len(net.Cfg.TDNs)
	cfg, err := endpointConfig(v, tdns, opt, mem.segs)
	if err != nil {
		return nil, err
	}
	if mem.variant != v || mem.tdns != tdns || !reflect.DeepEqual(mem.opt, opt) {
		clear(mem.parked)
		mem.parked = mem.parked[:0]
		mem.variant, mem.tdns, mem.opt = v, tdns, opt
		mem.opt.PerTDNCC = slices.Clone(opt.PerTDNCC)
	}
	mn := &muxNet{net: net, variant: v, opt: opt, mem: mem, cfg: cfg, conns: 1, muxes: make([][]*hostMux, len(net.Racks))}
	if v == MPTCP {
		mn.conns = tdns
	}
	for r, rack := range net.Racks {
		mn.muxes[r] = make([]*hostMux, len(rack.Hosts))
		for h, host := range rack.Hosts {
			m := newHostMux(host)
			mn.muxes[r][h] = m
			host.Recv = m.recv
			host.NotifyTDN = m.notifyTDN
			host.NotifyPreChange = m.notifyPreChange
		}
	}
	return mn, nil
}

// place is Run's placement of flow i on a fabric of the given rack count. On
// the two-rack testbed host i of rack 0 sends to host i of rack 1; on a rotor
// the flows go round the ring, flow i from rack i%racks to the next rack, host
// i/racks on both sides.
func place(racks, i int) (src, dst, host int) {
	if racks <= 2 {
		return 0, 1, i
	}
	return i % racks, (i%racks + 1) % racks, i / racks
}

// runFlow wires flow i of a Run: placed by place, on port 40000+i.
func (mn *muxNet) runFlow(i int) (*Flow, error) {
	src, dst, host := place(len(mn.net.Racks), i)
	return mn.BuildFlow(src, host, dst, host, uint16(40000+i))
}

// BuildFlows wires n flows of variant v onto net, placed and wired exactly as
// Run places and wires its flows, none started. The flows' mux takes over every
// host's upcalls, so call it once per network.
func BuildFlows(net *rdcn.Network, n int, v Variant, opt FlowOptions) ([]*Flow, error) {
	if err := CheckVariant(v, len(net.Racks), false); err != nil {
		return nil, err
	}
	mn, err := newMuxNet(net, &runMem{segs: new(tcp.Pool)}, v, opt)
	if err != nil {
		return nil, err
	}
	var flows []*Flow
	for i := 0; i < n; i++ {
		f, err := mn.runFlow(i)
		if err != nil {
			return nil, err
		}
		flows = append(flows, f)
	}
	return flows, nil
}

// BuildFlow wires one flow of the muxNet's variant from (srcRack, srcHost) to
// (dstRack, dstHost). Both endpoints use the same port number, which must be
// unique per endpoint host among the ports bound at the time — it is the demux
// key on both sides; subflow k of an MPTCP flow takes port+k. A flow is a
// parked one, both ends reopened, or else a new one. Each end's connections
// are addressed and bound, and its listener, if it has one, joins its host's
// notify set here — both ends of a TDTCP or MPTCP flow, the sender of a reTCP
// one — and leaves it at leave; the ports are unbound at release. The variant
// is one CheckVariant accepted for this fabric.
func (mn *muxNet) BuildFlow(srcRack, srcHost, dstRack, dstHost int, port uint16) (*Flow, error) {
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
	for k := 0; k < mn.conns; k++ {
		p := port + uint16(k)
		for _, m := range [...]*hostMux{sm, dm} {
			if m.conn(p) != nil {
				return nil, fmt.Errorf("experiments: port %d already in use on rack %d host %d", p, m.host.Rack.ID, m.host.ID)
			}
		}
	}

	f := mn.flow(sm, dm)
	for i := range f.ends {
		e, peer := &f.ends[i], f.ends[1-i].mux
		for k, c := range e.conns {
			c.LocalAddr, c.RemoteAddr = e.mux.host.Addr, peer.host.Addr
			c.LocalPort, c.RemotePort = port+uint16(k), port+uint16(k)
			e.mux.bind(c.LocalPort, c)
			if p, ok := c.Config().Policy.(*core.TDTCP); ok {
				p.Schedule = mn.net.Cfg.Schedule
			}
		}
		if e.listener != nil {
			e.mux.notify = append(e.mux.notify, e.listener)
		}
	}
	f.ends[1].sock.Listen()
	return f, nil
}

// flow returns the endpoints of a new flow from sm's host to dm's: the last
// flow parked, each end reopened in the role it had, or else a new pair.
// Sender first, as always: a TDTCP policy may arm its deadman when it
// attaches, and arming order is trace order.
func (mn *muxNet) flow(sm, dm *hostMux) *Flow {
	parked := mn.mem.parked
	if k := len(parked); k > 0 && !mn.noReuse {
		f := parked[k-1]
		parked[k-1] = nil
		mn.mem.parked = parked[:k-1]
		f.ends[0].reopen(sm)
		f.ends[1].reopen(dm)
		mn.reopened += 2
		return f
	}
	mn.built += 2
	f := &Flow{Variant: mn.variant}
	if mn.variant == MPTCP {
		cfg := mptcp.Config{NumSubflows: mn.conns, Sub: mn.cfg}
		f.MSnd, f.MRcv = mptcp.New(mn.net.Loop, cfg, sm.send), mptcp.New(mn.net.Loop, cfg, dm.send)
		f.ends[0] = flowEnd{mux: sm, conns: f.MSnd.Subflows(), sock: f.MSnd, listener: f.MSnd}
		f.ends[1] = flowEnd{mux: dm, conns: f.MRcv.Subflows(), sock: f.MRcv, listener: f.MRcv}
		return f
	}
	f.Snd, f.Rcv = mn.endpoint(sm), mn.endpoint(dm)
	f.pair = [2]*tcp.Conn{f.Snd, f.Rcv}
	f.ends[0] = flowEnd{mux: sm, conns: f.pair[:1:1], sock: f.Snd}
	f.ends[1] = flowEnd{mux: dm, conns: f.pair[1:], sock: f.Rcv}
	switch mn.variant {
	case TDTCP:
		f.ends[0].listener, f.ends[1].listener = f.Snd, f.Rcv
	case ReTCP, ReTCPDyn:
		f.ends[0].listener = mn.newRetcpSender(f.Snd)
	default:
		// Cubic, DCTCP, Reno: loss/ECN-driven variants take no explicit TDN
		// signal.
	}
	return f
}

// endpoint constructs a connection for one end of a new flow on host m.
func (mn *muxNet) endpoint(m *hostMux) *tcp.Conn {
	cfg := mn.cfg
	if mn.variant == TDTCP {
		cfg.Policy = core.New(cfg.NumTDNs, mn.opt.TDTCPOpts)
	}
	return tcp.NewConn(mn.net.Loop, cfg, m.send)
}

// leave retires a flow whose sender has seen its FIN acknowledged: its ends'
// listeners leave the notify sets, and a notification deadman, if armed, is
// stopped — with the notifications gone, silence would otherwise engage it on
// a dead flow for the rest of the run — and drops the run's schedule and lag
// histogram. The ports stay bound until release (see hostMux).
func (mn *muxNet) leave(f *Flow) {
	for i := range f.ends {
		e := &f.ends[i]
		if e.listener != nil {
			e.mux.leave(e.listener)
		}
		for _, c := range e.conns {
			if p, ok := c.Config().Policy.(*core.TDTCP); ok {
				p.StopDeadman()
				p.Schedule, p.DeadmanLag = nil, nil
			}
		}
	}
}

// release ends the linger of a flow that has left: each end unbinds its ports
// and releases its connections, which stop their timers and return their
// retransmission-queue entries to the pool, and drops its host's mux; the flow
// is parked.
func (mn *muxNet) release(f *Flow) {
	for i := range f.ends {
		f.ends[i].release()
	}
	mn.mem.parked = append(mn.mem.parked, f)
}

// parkAll ends the run's hold on its flows: every one still open or
// lingering leaves and is released, so that the pool counts no live
// connection. A parked flow then holds nothing of the run: its ends dropped
// their muxes at release, its connections their transmit function, FIN-ack
// callback, tracer and histograms (tcp.Conn.Release), and here it drops its
// arrival record; a reopened flow binds its own.
func (mn *muxNet) parkAll(flows []*Flow) {
	for _, f := range flows {
		mn.leave(f)
		mn.release(f)
	}
	for _, f := range mn.mem.parked {
		f.arrival = arrival{}
	}
}

// census sums the muxes over every host: the listeners one TDN change is
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

// flowEnd is one side of a flow: the host mux it is wired to, its socket and
// the socket's connections (the one endpoint, or an MPTCP endpoint's subflows,
// one per TDN), and the listener its host's TDN changes reach, nil for the
// loss-driven variants.
type flowEnd struct {
	mux      *hostMux // nil while the flow is parked
	conns    []*tcp.Conn
	sock     socket
	listener listener
}

// socket is what an end's application and the invariant checker see: a
// *tcp.Conn or an *mptcp.Conn, which pins its subflows to their TDNs itself.
type socket interface {
	Connect(bytes int64)
	Listen()
	Reopen(out func(*packet.Segment))
	Release()
	Delivered() int64
	CheckInvariants() error
}

// stats sums the counters of e's connections.
func (e *flowEnd) stats() tcp.Stats {
	var agg tcp.Stats
	for _, c := range e.conns {
		addStats(&agg, &c.Stats)
	}
	return agg
}

// reopen starts a parked end's next life on host m: its socket is reopened
// onto m's mux.
func (e *flowEnd) reopen(m *hostMux) {
	e.mux = m
	e.sock.Reopen(m.send)
}

// release unbinds e's ports, releases its socket and drops its mux.
func (e *flowEnd) release() {
	for _, c := range e.conns {
		e.mux.unbind(c.LocalPort)
	}
	e.sock.Release()
	e.mux = nil
}

// retcpSender is a reTCP sender as its host's listener: it forwards circuit
// establishment (TDN 1) and teardown (any other TDN) to the sender's
// circuit-aware CC, each after its reaction delay. Plain reTCP discovers
// circuit state from in-band packet marks: roughly one optical RTT late on
// establishment and one packet RTT late on teardown — during which it keeps
// sending at circuit rate into the packet network. retcpdyn gets explicit
// advance signals and reacts at once.
type retcpSender struct {
	loop     *sim.Loop
	up, down sim.Dur
	// The sender's CircuitUp and CircuitDown, bound once for the delayed
	// calls.
	circuitUp, circuitDown func()
}

func (mn *muxNet) newRetcpSender(c *tcp.Conn) *retcpSender {
	react := retcpReactDelay
	if mn.variant == ReTCPDyn {
		react = 0 // the switch notifies explicitly ahead of time
	}
	return &retcpSender{loop: mn.net.Loop, up: react, down: 2 * react,
		circuitUp: c.CircuitUp, circuitDown: c.CircuitDown}
}

func (s *retcpSender) Notify(tdn int, _ uint32) {
	if tdn == 1 {
		s.react(s.up, s.circuitUp)
	} else {
		s.react(s.down, s.circuitDown)
	}
}

func (s *retcpSender) react(delay sim.Dur, fn func()) {
	if delay > 0 {
		s.loop.After(delay, fn)
	} else {
		fn()
	}
}

// preChange is retcpdyn's advance ramp, taken with the ToR's buffer resize.
func (s *retcpSender) preChange(tdn int) {
	if tdn == 1 {
		s.circuitUp()
	}
}
