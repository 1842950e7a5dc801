// Package experiments assembles full paper experiments: it wires transport
// variants (CUBIC, DCTCP, reTCP, MPTCP, TDTCP) onto the emulated RDCN,
// drives the §5.1 workload, and produces the series and distributions behind
// every figure in the evaluation (see DESIGN.md's experiment index).
package experiments

import (
	"fmt"
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

	arrival arrival // RunWorkload's record of the flow's current life
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

// endpointConfig builds the tcp.Config of one endpoint, sender or receiver
// alike, of a non-MPTCP variant: CC factory, pacing, ECN, and (for TDTCP) the
// endpoint's own per-TDN state policy.
func endpointConfig(net *rdcn.Network, v Variant, opt FlowOptions, pool *tcp.Pool) (tcp.Config, error) {
	ntdns := len(net.Cfg.TDNs)
	mk, err := cc.NewFactory(ccName(v))
	if err != nil {
		return tcp.Config{}, err
	}
	cfg := tcp.Config{CC: mk, ECN: needsECN(v, opt), Pool: pool,
		MinRTO: opt.MinRTO, MaxRTO: opt.MaxRTO, MSS: opt.MSS, RcvBuf: opt.RcvBuf}
	if v != TDTCP {
		return cfg, nil
	}
	cfg.Pacing = tdtcpPacing
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

// listener is what a host's TDN-change notification is fanned out to: a
// TDTCP endpoint (*tcp.Conn), one end of an MPTCP flow (*mptcpEnd) or a reTCP
// sender (*retcpSender).
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
// itself is parked whole for a later arrival to reopen (muxNet.parked).
//
// The port table is looked up, never ranged over, and notify keeps join
// order (fan-out order is trace order), so event order stays deterministic.
type hostMux struct {
	host   *rdcn.Host
	send   func(*packet.Segment) // host.Send, bound once: the Out of every endpoint here
	seg    packet.Segment
	conns  []portConn // the bound ports, sorted by port: a binary search finds one
	notify []listener
	cur    int    // the TDN last notified; MPTCP subflow gates hold to it
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
	m.cur = tdn
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

// leave takes c out of the notify set, keeping the others in join order.
func (m *hostMux) leave(c *tcp.Conn) {
	if i := slices.Index(m.notify, listener(c)); i >= 0 {
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
	pool    *tcp.Pool           // every endpoint's queue entries: the harness's in a run
	muxes   [][]*hostMux        // [rack][host]
	byAddr  map[uint32]*hostMux // the same muxes by host address, for leave

	// parked holds the flows release has retired until an arrival reopens
	// them (DESIGN.md §10 "Endpoint reuse").
	parked []*Flow
	// built and reopened count the endpoints constructed and the times one
	// was reopened: two per flow between them.
	built, reopened int
	// noReuse makes every arrival construct its flow: the reference this
	// package's tests hold reuse against.
	noReuse bool
}

// newMuxNet takes over every host's upcalls: frames, TDN-change
// notifications and the retcpdyn advance signal all go through the host's mux.
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
			host.NotifyTDN = m.notifyTDN
			host.NotifyPreChange = m.notifyPreChange
		}
	}
	return mn
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
	mn := newMuxNet(net, new(tcp.Pool), v, opt)
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
// key on both sides; subflow k of an MPTCP flow takes port+k. A single-path
// flow is a parked one, both ends reopened, or else a new one.
// The flow's listeners join their hosts' notify sets here — both endpoints of
// a TDTCP or MPTCP flow, the sender of a reTCP one — and a TDTCP flow's leave
// them at leave; the ports are unbound at release. The variant is one
// CheckVariant accepted for this fabric.
func (mn *muxNet) BuildFlow(srcRack, srcHost, dstRack, dstHost int, port uint16) (*Flow, error) {
	ports := 1
	if mn.variant == MPTCP {
		ports = len(mn.net.Cfg.TDNs)
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
	for k := 0; k < ports; k++ {
		p := port + uint16(k)
		for _, m := range [...]*hostMux{sm, dm} {
			if m.conn(p) != nil {
				return nil, fmt.Errorf("experiments: port %d already in use on rack %d host %d", p, m.host.Rack.ID, m.host.ID)
			}
		}
	}
	if mn.variant == MPTCP {
		return mn.buildMPTCP(sm, dm, port), nil
	}

	f, err := mn.flow(sm, dm)
	if err != nil {
		return nil, err
	}
	f.Snd.LocalAddr, f.Snd.RemoteAddr = sm.host.Addr, dm.host.Addr
	f.Snd.LocalPort, f.Snd.RemotePort = port, port
	f.Rcv.LocalAddr, f.Rcv.RemoteAddr = dm.host.Addr, sm.host.Addr
	f.Rcv.LocalPort, f.Rcv.RemotePort = port, port
	f.Rcv.Listen()

	sm.bind(port, f.Snd)
	dm.bind(port, f.Rcv)
	switch mn.variant {
	case TDTCP:
		sm.notify = append(sm.notify, f.Snd)
		dm.notify = append(dm.notify, f.Rcv)
	case ReTCP, ReTCPDyn:
		sm.notify = append(sm.notify, mn.newRetcpSender(f.Snd))
	default:
		// Cubic, DCTCP, Reno: loss/ECN-driven variants take no explicit TDN
		// signal.
	}
	return f, nil
}

// flow returns the endpoints of a new single-path flow from sm's host to
// dm's: the last flow parked, each end reopened in the role it had, or else a
// new pair. Sender first, as always: a TDTCP policy may arm its deadman when
// it attaches, and arming order is trace order.
func (mn *muxNet) flow(sm, dm *hostMux) (*Flow, error) {
	if k := len(mn.parked); k > 0 && !mn.noReuse {
		f := mn.parked[k-1]
		mn.parked[k-1] = nil
		mn.parked = mn.parked[:k-1]
		f.Snd.Reopen(sm.send)
		f.Rcv.Reopen(dm.send)
		mn.reopened += 2
		return f, nil
	}
	f := &Flow{Variant: mn.variant}
	var err error
	if f.Snd, err = mn.endpoint(sm); err != nil {
		return nil, err
	}
	if f.Rcv, err = mn.endpoint(dm); err != nil {
		return nil, err
	}
	return f, nil
}

// endpoint constructs a connection for one end of a new flow on host m.
func (mn *muxNet) endpoint(m *hostMux) (*tcp.Conn, error) {
	cfg, err := endpointConfig(mn.net, mn.variant, mn.opt, mn.pool)
	if err != nil {
		return nil, err
	}
	mn.built++
	return tcp.NewConn(mn.net.Loop, cfg, m.send), nil
}

// buildMPTCP wires an MPTCP flow from sm's host to dm's: one subflow per TDN,
// subflow k on port port+k at both ends, and each end in its host's notify
// set.
func (mn *muxNet) buildMPTCP(sm, dm *hostMux, port uint16) *Flow {
	opt := mn.opt
	minRTO := opt.MinRTO
	if minRTO == 0 {
		// Stranded subflows must not melt down in RTO storms between their
		// TDN's days (the kernel's 200 ms floor, time-dilated, is several
		// optical weeks).
		minRTO = 10 * sim.Millisecond
	}
	sub := tcp.Config{CC: func() cc.Algorithm { return cc.NewCubic() }, MinRTO: minRTO, MaxRTO: opt.MaxRTO,
		MSS: opt.MSS, RcvBuf: opt.RcvBuf, Pool: mn.pool}
	cfg := mptcp.Config{NumSubflows: len(mn.net.Cfg.TDNs), Sub: sub}
	snd, rcv := newMPTCPEnd(mn.net.Loop, sm, cfg), newMPTCPEnd(mn.net.Loop, dm, cfg)
	for k, s := range snd.conn.Subflows() {
		r, p := rcv.conn.Subflows()[k], port+uint16(k)
		s.LocalAddr, s.RemoteAddr = sm.host.Addr, dm.host.Addr
		s.LocalPort, s.RemotePort = p, p
		r.LocalAddr, r.RemoteAddr = dm.host.Addr, sm.host.Addr
		r.LocalPort, r.RemotePort = p, p
		sm.bind(p, s)
		dm.bind(p, r)
	}
	rcv.conn.Listen()
	sm.notify = append(sm.notify, snd)
	dm.notify = append(dm.notify, rcv)
	return &Flow{Variant: MPTCP, MSnd: snd.conn, MRcv: rcv.conn}
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
// both connections stop their timers and return their retransmission-queue
// entries to the pool, and the flow is parked.
func (mn *muxNet) release(f *Flow) {
	for _, c := range [...]*tcp.Conn{f.Snd, f.Rcv} {
		mn.byAddr[c.LocalAddr].unbind(c.LocalPort)
		c.Release()
	}
	mn.parked = append(mn.parked, f)
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

// mptcpEnd is one end of an MPTCP flow as its host's listener. The paper's
// MPTCP "pins" subflows via the tdm_schd scheduler at both endpoints, so data
// AND acknowledgments of an inactive subflow wait in the host's send queue
// until that TDN returns (§2.2, §3.3 — the cause of MPTCP's flow-control
// stalls): a TDN change first releases what the gate of the subflow pinned to
// it held, then steers the scheduler.
type mptcpEnd struct {
	conn  *mptcp.Conn
	gates []subflowGate // one per subflow; gate k passes only during TDN k
}

func newMPTCPEnd(loop *sim.Loop, m *hostMux, cfg mptcp.Config) *mptcpEnd {
	e := &mptcpEnd{gates: make([]subflowGate, cfg.NumSubflows)}
	outs := make([]func(*packet.Segment), cfg.NumSubflows)
	for k := range e.gates {
		e.gates[k] = subflowGate{mux: m, tdn: k}
		outs[k] = e.gates[k].send
	}
	e.conn = mptcp.New(loop, cfg, outs)
	return e
}

func (e *mptcpEnd) Notify(tdn int, epoch uint32) {
	if tdn >= 0 && tdn < len(e.gates) {
		e.gates[tdn].flush()
	}
	e.conn.Notify(tdn, epoch)
}

// subflowGate holds a subflow's outgoing segments at the host while the
// subflow's TDN is not the one its host was last notified of.
type subflowGate struct {
	mux *hostMux
	tdn int
	// held are the segments waiting for the TDN, copied into value slots that
	// the gate keeps from one day to the next, each with its SACK storage.
	held []packet.Segment
}

// A gate makes gateSlots slots at first and doubles them when a day holds
// more (the most seen in one day is 11); each slot is made with
// gateSACKBlocks SACK blocks, the most a segment carries.
const (
	gateSlots      = 8
	gateSACKBlocks = 4
)

func (g *subflowGate) send(s *packet.Segment) {
	if g.mux.cur != g.tdn {
		// The connection reuses the segment's storage after send returns
		// (the Conn.Out contract), so a held segment must be a deep copy:
		// into the next slot, over the SACK array the slot already has.
		n := len(g.held)
		if n == cap(g.held) {
			g.grow()
		}
		g.held = g.held[:n+1]
		h := &g.held[n]
		sack := h.TCP.SACK[:0]
		*h = *s
		h.TCP.SACK = append(sack, s.TCP.SACK...)
		return
	}
	g.mux.send(s)
}

// grow doubles the gate's slots (to gateSlots at first). The new slots get
// their SACK storage at once, carved from one block, so that a slot, once
// made, never allocates.
func (g *subflowGate) grow() {
	n, size := len(g.held), max(gateSlots, 2*cap(g.held))
	held := make([]packet.Segment, size)
	copy(held, g.held)
	sacks := make([]packet.SACKBlock, (size-n)*gateSACKBlocks)
	for i := n; i < size; i++ {
		k := (i - n) * gateSACKBlocks
		held[i].TCP.SACK = sacks[k : k : k+gateSACKBlocks]
	}
	g.held = held[:n]
}

// flush sends what the gate held. Sending serializes a segment at once, so
// the slots are free for the next day as soon as the loop is done.
func (g *subflowGate) flush() {
	for i := range g.held {
		g.mux.send(&g.held[i])
	}
	g.held = g.held[:0]
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
