package rdcn

import (
	"encoding/binary"
	"fmt"

	"github.com/rdcn-net/tdtcp/internal/netem"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// TDNParams describes one time-division network: its bottleneck rate and
// one-way propagation delay.
type TDNParams struct {
	Rate  sim.Rate
	Delay sim.Dur
}

// NotifyProfile models the latency of the ToR-generated ICMP TDN-change
// notification (§3.2, §5.4). The three §5.4 optimizations map onto its
// fields: packet caching reduces Gen, the pull model eliminates Stagger, the
// dedicated control network reduces Net and Jitter.
type NotifyProfile struct {
	// Gen is the ToR-side time to construct and emit the ICMP packet.
	Gen sim.Dur
	// Stagger is the extra per-host delay of the push model: host i
	// receives its notification Gen + i*Stagger + Net after the change.
	Stagger sim.Dur
	// Net is the one-way delivery latency to the host.
	Net sim.Dur
	// Jitter adds a uniform [0,Jitter) random component per notification,
	// modelling data-plane queueing of the notification packet.
	Jitter sim.Dur
}

// OptimizedNotify returns the notification profile with all three §5.4
// optimizations applied: cached ICMP construction, pull model, dedicated
// control network.
func OptimizedNotify() NotifyProfile {
	return NotifyProfile{Gen: 500 * sim.Nanosecond, Stagger: 0, Net: 1 * sim.Microsecond, Jitter: 500 * sim.Nanosecond}
}

// UnoptimizedNotify returns the baseline profile: per-notification packet
// construction, push model looping over flows, notifications sharing the
// busy data-plane interface.
func UnoptimizedNotify() NotifyProfile {
	return NotifyProfile{Gen: 8 * sim.Microsecond, Stagger: 3 * sim.Microsecond, Net: 8 * sim.Microsecond, Jitter: 8 * sim.Microsecond}
}

// NotifyFate is a fault-injection verdict for one host's TDN-change
// notification: it may be dropped, delayed an extra Extra beyond the
// NotifyProfile latency, and/or duplicated (the stale copy arriving DupExtra
// after the original's nominal delivery instant).
type NotifyFate struct {
	Drop     bool
	Extra    sim.Dur
	Dup      bool
	DupExtra sim.Dur
}

// PreChange configures the retcpdyn behaviour (§5.2): Lead before each day
// on TDN, the ToR resizes its VOQs to Cap and sends hosts an advance
// circuit-up notification; the original capacity is restored when that day
// ends.
type PreChange struct {
	TDN  int
	Lead sim.Dur
	Cap  int
}

// Config assembles an N-rack hybrid RDCN (two racks reproduce the paper's
// Etalon testbed; more racks form a rotor-style multi-rack fabric whose
// optical matchings are the RotorPeer schedule).
type Config struct {
	// Racks is the number of ToR switches (default 2). With more than two
	// racks, TDN 0 is the always-routable packet network and each optical
	// TDN k >= 1 connects only the rack pairs of rotor matching k; the
	// packet uplink of a rack is fair-shared across its Racks-1 VOQs.
	Racks        int
	HostsPerRack int
	VOQCap       int // ToR VOQ capacity in packets
	MarkThresh   int // ECN marking threshold (0 = no marking)
	TDNs         []TDNParams
	Schedule     *Schedule
	Notify       NotifyProfile
	PreChange    *PreChange // optional retcpdyn switch support

	// Cluster is ignored: every rack lives on the loop passed to New. It is
	// set only under benchmark/ and goes with the one-loop shim in
	// internal/sim/shard.go (ROADMAP item 2).
	Cluster *sim.ShardedLoop

	// FramePool recycles the network's frame wire buffers, and holds its
	// pipes' FIFO arrays and propagation cells (DefaultConfig supplies a
	// fresh pool). A pool serves one network at a time; once that network
	// has run Release, the next may take the pool over warm. Nil turns
	// recycling off, making every frame and pipe array a fresh allocation:
	// the unpooled reference data plane, whose traces the pooled plane must
	// match byte for byte (the golden-trace test enforces this), kept for
	// that A/B check and for debugging suspected aliasing.
	FramePool *netem.BufPool

	// Fault-injection hooks, installed by internal/fault. All are optional
	// and cost nothing when nil; rdcn never decides faults itself, it only
	// applies the verdicts, so the injector owns all randomness and tracing.

	// NotifyFault, when non-nil, is consulted once per host per TDN-change
	// notification.
	NotifyFault func(rack, host, tdn int, epoch uint32) NotifyFate
	// CircuitOK, when non-nil and returning false, makes the data plane
	// treat tdn as dark (a flapped circuit) even though the nominal
	// schedule — and the control plane's notifications — say the day is up.
	CircuitOK func(tdn int, now sim.Time) bool
	// ScheduleOffset, when non-nil, shifts the data plane's view of the
	// schedule: VOQ links evaluate Schedule.At(now - offset) while
	// notifications keep nominal timing, modelling a ToR whose optical
	// switch drifts from its agenda.
	ScheduleOffset func(now sim.Time) sim.Dur
	// ResizeFault, when non-nil and returning true, suppresses one VOQ
	// recapping (the retcpdyn resize silently fails on that queue).
	ResizeFault func(rack, q, newCap int) bool
}

// The §5.1 testbed's host NIC, shared by every host of a rack.
const (
	hostRate  = 100 * sim.Gbps      // host NIC rate; bursts are shaped at this rate
	hostDelay = 1 * sim.Microsecond // host-to-ToR propagation (intra-rack, tiny)
)

// DefaultConfig returns the §5.1 Etalon configuration: 16 hosts per rack,
// TDN 0 = 10 Gbps / 100 µs RTT packet network, TDN 1 = 100 Gbps / 40 µs RTT
// optical network, 180 µs days, 20 µs nights, 6:1 packet:optical ratio,
// 16-packet VOQs, optimized notifications.
func DefaultConfig() Config {
	return Config{
		HostsPerRack: 16,
		VOQCap:       16,
		TDNs: []TDNParams{
			{Rate: 10 * sim.Gbps, Delay: 49 * sim.Microsecond},  // ~100us RTT
			{Rate: 100 * sim.Gbps, Delay: 19 * sim.Microsecond}, // ~40us RTT
		},
		Schedule:  HybridWeek(6, 180*sim.Microsecond, 20*sim.Microsecond),
		Notify:    OptimizedNotify(),
		FramePool: new(netem.BufPool),
	}
}

// Host is an end host attached to a rack ToR. Its upcalls are its transport
// stack's (experiments' host mux): Recv demultiplexes frames to connections,
// NotifyTDN fans the notification out to the host's sockets, each gating it
// by epoch, and NotifyPreChange reaches the host's reTCP senders.
type Host struct {
	Rack *Rack
	ID   int
	Addr uint32

	// Recv receives every data/ACK frame addressed to this host.
	Recv func(netem.Frame)
	// NotifyTDN receives the TDN-change notification: the active TDN and
	// the epoch the ICMP packet of Fig. 5a carries.
	NotifyTDN func(tdn int, epoch uint32)
	// NotifyPreChange, if set, receives the retcpdyn advance circuit-up
	// signal Lead before a PreChange.TDN day begins.
	NotifyPreChange func(tdn int)
}

// Send serializes seg and transmits it through the rack's shared ingress
// NIC toward the ToR. The destination is taken from seg.Dst.
//
// All hosts of a rack share one ingress pipe at hostRate, mirroring the
// Etalon testbed where 16 containers share the emulated machine's data-plane
// NIC: a synchronized burst from many flows reaches the ToR serialized at
// fabric rate, not as an instantaneous impulse.
func (h *Host) Send(seg *packet.Segment) {
	seg.Src = h.Addr
	r := h.Rack
	r.framesIn++
	r.uplink.Send(netem.NewFrameIn(r.net.Loop, r.net.pool, seg))
}

// Uplink exposes the rack's shared host-side ingress NIC pipe. The fault
// injector installs its data-path frame fault hook here.
func (r *Rack) Uplink() *netem.Pipe { return r.uplink }

// Rack is a ToR switch plus its attached hosts. Each rack has one VOQ per
// destination rack.
type Rack struct {
	net   *Network
	ID    int
	Hosts []*Host

	uplink *netem.Pipe // shared host-side ingress NIC
	voqs   []*netem.VOQ
	links  []*netem.Pipe // links[q] drains voqs[q] onto the active TDN

	// Per-rack slice of the frame-conservation ledger: framesIn counts
	// frames sent by this rack's hosts, delivered/misrouted count frames
	// terminating at this rack. Network's ledger methods sum them.
	framesIn  uint64
	delivered uint64
	misrouted uint64

	// notifyFree recycles the cells of notification deliveries to this
	// rack's hosts.
	notifyFree []*notifyCell
}

// FrameLedger reports this rack's slice of the conservation ledger: frames
// sent by its hosts, and frames delivered to / misrouted at its hosts.
// Summed over racks it equals Network.FrameLedger.
func (r *Rack) FrameLedger() (sent, delivered, misrouted uint64) {
	return r.framesIn, r.delivered, r.misrouted
}

// qIndex maps a destination rack to its compact VOQ index (the rack itself
// is skipped). qDst is the inverse.
func (r *Rack) qIndex(dst int) int {
	if dst > r.ID {
		return dst - 1
	}
	return dst
}

func (r *Rack) qDst(q int) int {
	if q >= r.ID {
		return q + 1
	}
	return q
}

// VOQ exposes the rack's (first) uplink virtual output queue.
func (r *Rack) VOQ() *netem.VOQ { return r.voqs[0] }

// VOQs exposes all uplink queues, one per destination rack.
func (r *Rack) VOQs() []*netem.VOQ { return r.voqs }

// QueueLen reports the rack's total uplink occupancy in packets.
func (r *Rack) QueueLen() int {
	n := 0
	for _, v := range r.voqs {
		n += v.Len()
	}
	return n
}

// Network is the assembled N-rack hybrid RDCN.
type Network struct {
	Loop    *sim.Loop
	Cfg     Config
	Racks   []*Rack
	epoch   uint32
	stopAt  sim.Time
	started bool
	baseVOQ int
	tracer  *trace.Tracer

	// pool recycles the wire buffers of every rack's frames
	// (Config.FramePool): releases anywhere restock sends anywhere, and
	// Release returns the frames still inside the network, so once it has
	// run every Get has had its Put. Every pipe of the network draws its
	// FIFO array and propagation cells from it too. Nil turns recycling off.
	pool *netem.BufPool

	// OnTransition, if set, is called at the start of every day with the
	// new TDN (after the links are kicked, before notifications are sent).
	OnTransition func(tdn int)

	// NotifyLat, when non-nil, records the epoch-switch latency of every
	// delivered TDN-change notification: nanoseconds from the schedule
	// transition to the instant the host swaps state (delivery and swap are
	// synchronous). Faulted deliveries include their injected Extra delay.
	NotifyLat *trace.Histogram

	// epochSpan is the open "epoch" occupancy span for the current day
	// (0 during nights); epochTDN labels it for the closing record.
	epochSpan trace.SpanID
	epochTDN  int

	// The control plane's callbacks, bound once by Start: the slot boundary,
	// and retcpdyn's day-end VOQ restore and advance action.
	transitionFn, restoreFn, preChangeFn func()

	// The data plane's current slot (see dataPlaneSlot): the schedule's
	// answer for every evaluation time in [slotStart, slotEnd). Empty until
	// the first lookup.
	slotStart, slotEnd sim.Time
	slotTDN            int
	slotOK             bool

	// paths holds every link's path on every TDN, built once in New (see
	// pathRow).
	paths []tdnPath

	// queued counts the frames waiting in every VOQ of the network; each VOQ
	// adds its enqueues and dequeues to it (netem.VOQ.Total).
	queued int
}

// tdnPath is one link's path on one TDN; ok is false when the TDN gives the
// link's rack pair no circuit.
type tdnPath struct {
	netem.Path
	ok bool
}

// SetTracer attaches a tracer to the network's control plane (CatRDCN
// events: day/night transitions, notification fan-out, VOQ recapping) and to
// every rack VOQ (CatVOQ events, labeled "r<rack>q<idx>"). Pass nil to
// detach.
func (n *Network) SetTracer(t *trace.Tracer) {
	n.tracer = t
	for _, rack := range n.Racks {
		for _, v := range rack.voqs {
			v.Tracer = t
		}
	}
}

// emit reports a CatRDCN control-plane event.
func (n *Network) emit(name string, tdn int, a, b float64) {
	if n.tracer.Enabled(trace.CatRDCN) {
		n.tracer.Emit(trace.CatRDCN, int64(n.Loop.Now()), name, -1, tdn, a, b, "")
	}
}

// HostAddr returns the address of host id in rack r, mirroring the 10.r.0.id
// addressing of the Etalon testbed.
func HostAddr(rack, id int) uint32 {
	return 0x0A<<24 | uint32(rack&0xFF)<<16 | uint32(id&0xFFFF)
}

// New assembles a network from cfg.
func New(loop *sim.Loop, cfg Config) (*Network, error) {
	if cfg.Racks == 0 {
		cfg.Racks = 2
	}
	if cfg.Racks < 2 || cfg.Racks > 0xFF {
		return nil, fmt.Errorf("rdcn: Racks must be in [2,255], got %d", cfg.Racks)
	}
	if cfg.HostsPerRack <= 0 || cfg.HostsPerRack > 0x10000 {
		return nil, fmt.Errorf("rdcn: HostsPerRack must be in [1,65536] (HostAddr keeps 16 bits of host id), got %d", cfg.HostsPerRack)
	}
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("rdcn: Schedule is required")
	}
	if n := cfg.Schedule.NumTDNs(); n > len(cfg.TDNs) {
		return nil, fmt.Errorf("rdcn: schedule references %d TDNs but only %d configured", n, len(cfg.TDNs))
	}
	if len(cfg.TDNs) > packet.MaxTDNs {
		return nil, fmt.Errorf("rdcn: at most %d TDNs supported by the wire format", packet.MaxTDNs)
	}
	if cfg.Racks > 2 {
		if err := validateRotor(cfg.Racks, cfg.Schedule); err != nil {
			return nil, err
		}
	}
	// slotStart > slotEnd: the kept slot starts empty.
	n := &Network{Loop: loop, Cfg: cfg, pool: cfg.FramePool, baseVOQ: cfg.VOQCap, slotStart: 1}
	nvoq := cfg.Racks - 1 // one VOQ per destination rack
	n.Racks = make([]*Rack, cfg.Racks)
	n.paths = make([]tdnPath, cfg.Racks*nvoq*len(cfg.TDNs))
	for r := 0; r < cfg.Racks; r++ {
		rack := &Rack{net: n, ID: r}
		for k := 0; k < nvoq; k++ {
			voq := netem.NewVOQ(loop, cfg.VOQCap, cfg.MarkThresh)
			voq.Label = fmt.Sprintf("r%dq%d", rack.ID, k)
			voq.Total = &n.queued
			dst := rack.qDst(k)
			row := n.pathRow(r, k)
			for tdn := range row {
				row[tdn] = n.pathOn(r, dst, tdn)
			}
			link := &netem.Pipe{
				Loop: loop,
				Pool: n.pool,
				Out:  func(f netem.Frame) { n.deliver(dst, f) },
				Next: func() (netem.Frame, netem.Path, bool) {
					p, ok := n.path(row)
					if !ok {
						return netem.Frame{}, p, false
					}
					f, ok := voq.Dequeue()
					return f, p, ok
				},
			}
			rack.voqs = append(rack.voqs, voq)
			rack.links = append(rack.links, link)
		}
		rack.uplink = &netem.Pipe{
			Loop:  loop,
			Rate:  hostRate,
			Delay: hostDelay,
			Out:   func(f netem.Frame) { rack.ingress(f) },
			Pool:  n.pool,
		}
		for h := 0; h < cfg.HostsPerRack; h++ {
			rack.Hosts = append(rack.Hosts, &Host{Rack: rack, ID: h, Addr: HostAddr(r, h)})
		}
		n.Racks[r] = rack
	}
	return n, nil
}

// pathOn is rack rackID's path toward rack dst on TDN tdn. On a two-rack
// network every scheduled TDN connects the pair at its full rate (the paper's
// hybrid testbed). With more racks, TDN 0 is the packet network fair-sharing
// the rack uplink across its Racks-1 VOQs, and an optical TDN k serves only
// the rack pair of rotor matching k.
func (n *Network) pathOn(rackID, dst, tdn int) tdnPath {
	p := n.Cfg.TDNs[tdn]
	if n.Cfg.Racks > 2 {
		if tdn == 0 {
			return tdnPath{netem.Path{Rate: p.Rate / sim.Rate(n.Cfg.Racks-1), Delay: p.Delay}, true}
		}
		if RotorPeer(n.Cfg.Racks, tdn, rackID) != dst {
			return tdnPath{}
		}
	}
	return tdnPath{netem.Path{Rate: p.Rate, Delay: p.Delay}, true}
}

// pathRow is the path table of rack r's VOQ q, indexed by TDN.
func (n *Network) pathRow(r, q int) []tdnPath {
	ntdn := len(n.Cfg.TDNs)
	return n.paths[(r*(n.Cfg.Racks-1)+q)*ntdn:][:ntdn]
}

// path reports the active path of the link whose path table is row (ok is
// false while it is dark). A pair the TDN leaves dark returns before the
// circuit check; CircuitOK is asked on every other call, because a flap has
// no event that could invalidate a cached answer.
func (n *Network) path(row []tdnPath) (netem.Path, bool) {
	now := n.Loop.Now()
	tdn, ok := n.dataPlaneSlot(now)
	if !ok {
		return netem.Path{}, false
	}
	p := row[tdn]
	if !p.ok {
		return netem.Path{}, false
	}
	if ck := n.Cfg.CircuitOK; ck != nil && !ck(tdn, now) {
		return netem.Path{}, false // a flapped circuit reads as dark
	}
	return p.Path, true
}

// dataPlaneSlot reports the scheduled TDN the data plane serves at now (ok is
// false during a night). Schedule drift shifts the evaluation time away from
// now; the slot holding the last evaluation time is kept, and the schedule is
// searched again only when the evaluation time leaves it. That is exact for
// any sequence of times, so drift may step the evaluation time backwards.
func (n *Network) dataPlaneSlot(now sim.Time) (int, bool) {
	t := now
	if off := n.Cfg.ScheduleOffset; off != nil {
		t = t.Add(-off(now))
	}
	if t < n.slotStart || t >= n.slotEnd {
		n.slotTDN, n.slotOK, n.slotStart, n.slotEnd = n.Cfg.Schedule.slot(t)
	}
	return n.slotTDN, n.slotOK
}

// ingress accepts a frame from a host NIC and places it in the rack's uplink
// VOQ of the destination rack read from the IPv4 header. Intra-rack frames
// hairpin at the ToR without touching the fabric. Overflow is a drop-tail
// loss, exactly as in the Etalon VOQs.
func (r *Rack) ingress(f netem.Frame) {
	n := r.net
	if len(f.Wire) < 20 {
		r.misrouted++
		f.Release(n.pool)
		return
	}
	addr := binary.BigEndian.Uint32(f.Wire[16:20])
	dst := int(addr >> 16 & 0xFF)
	if addr>>24 != 0x0A || dst >= n.Cfg.Racks {
		r.misrouted++
		f.Release(n.pool)
		return
	}
	if dst == r.ID {
		n.deliver(r.ID, f)
		return
	}
	q := r.qIndex(dst)
	if !r.voqs[q].Enqueue(f) {
		f.Release(n.pool)
		return
	}
	r.links[q].Kick()
}

// deliver hands a frame to the destination host in rack dst, identified by
// the IPv4 destination address. Delivery is a frame's terminal point: once
// Recv returns the wire buffer goes back to the pool, so Recv hooks must
// parse (Parse copies) rather than retain the wire.
//
// Hot path: runs once per delivered frame.
func (n *Network) deliver(dst int, f netem.Frame) {
	rack := n.Racks[dst]
	h := n.hostIn(rack, f)
	if h == nil {
		rack.misrouted++
		f.Release(n.pool) // misrouted; drop
		return
	}
	rack.delivered++
	if h.Recv != nil {
		h.Recv(f)
	}
	f.Release(n.pool)
}

// hostIn resolves a frame's destination host within rack by its IPv4
// destination address, or nil when the frame is misrouted.
//
// Hot path: runs once per delivered frame.
func (n *Network) hostIn(rack *Rack, f netem.Frame) *Host {
	if len(f.Wire) < 20 {
		return nil
	}
	addr := binary.BigEndian.Uint32(f.Wire[16:20])
	id := int(addr & 0xFFFF)
	if int(addr>>16&0xFF) != rack.ID || id >= len(rack.Hosts) {
		return nil
	}
	return rack.Hosts[id]
}

// Start schedules the RDCN control plane (schedule transitions, VOQ
// resizing, notifications) until the given time. Call once before running
// the loop.
func (n *Network) Start(until sim.Time) {
	if n.started {
		panic("rdcn: Start called twice")
	}
	n.started = true
	n.stopAt = until
	n.transitionFn, n.restoreFn, n.preChangeFn = n.transition, n.restoreVOQCaps, n.preChange
	n.scheduleTransition(0)
}

// scheduleTransition arms the control-plane event for the slot boundary at
// time t (t=0 is the initial day start) and, transitively, all following
// ones until stopAt. The callback is bound once, by Start, and reused for
// every slot.
func (n *Network) scheduleTransition(t sim.Time) {
	if t >= n.stopAt {
		return
	}
	n.Loop.At(t, n.transitionFn)
}

// transition is the control-plane event at every slot boundary.
func (n *Network) transition() {
	now := n.Loop.Now()
	tdn, ok, slotEnd := n.Cfg.Schedule.At(now)
	prev := n.epoch
	n.epoch++
	if n.epoch == 0 {
		// Conn.Notify reads epoch 0 as "no epoch" and lets it past its
		// stale/duplicate gate, so the counter skips it at the wrap.
		n.epoch = 1
	}
	n.KickAll()
	if n.epochSpan != 0 {
		// Close the previous day's occupancy span; A carries the epoch
		// counter that opened it.
		n.tracer.EndSpan(trace.CatRDCN, int64(now), "epoch", -1, n.epochTDN, n.epochSpan, float64(prev), 0)
		n.epochSpan = 0
	}
	if ok {
		n.emit("day", tdn, float64(n.epoch), float64(slotEnd.Sub(now)))
		n.epochSpan = n.tracer.BeginSpan(trace.CatRDCN, int64(now), "epoch", -1, tdn, 0)
		n.epochTDN = tdn
		if n.OnTransition != nil {
			n.OnTransition(tdn)
		}
		n.notifyAll(tdn, n.epoch)
		if pc := n.Cfg.PreChange; pc != nil && tdn == pc.TDN {
			// Ensure the enlarged VOQ (idempotent if the lead-time resize
			// already happened) and restore the base size at day end.
			n.setVOQCaps(pc.Cap)
			n.Loop.At(slotEnd, n.restoreFn)
		}
	} else {
		n.emit("night", -1, float64(n.epoch), float64(slotEnd.Sub(now)))
	}
	n.armPreChange(now, slotEnd)
	n.scheduleTransition(slotEnd)
}

// armPreChange schedules the retcpdyn advance actions (VOQ resize + advance
// circuit-up notification) if the instant "Lead before the next PreChange.TDN
// day" falls inside the current slot [t, slotEnd). Because a transition event
// fires at every slot boundary, each upcoming day is armed from exactly one
// slot even when Lead spans several nights and days.
func (n *Network) armPreChange(t, slotEnd sim.Time) {
	pc := n.Cfg.PreChange
	if pc == nil {
		return
	}
	dayStart, tdn := n.Cfg.Schedule.NextDayStart(t)
	if tdn != pc.TDN {
		return
	}
	at := dayStart.Add(-pc.Lead)
	if at < 0 {
		at = 0
	}
	if t == 0 && at <= t {
		at = t // lead time predates the simulation start
	} else if at < t || at >= slotEnd {
		return // a different (earlier or later) slot owns this arming
	}
	n.Loop.At(at, n.preChangeFn)
}

// preChange is the retcpdyn advance action: the VOQs grow to PreChange.Cap
// and every host gets the advance circuit-up signal.
func (n *Network) preChange() {
	pc := n.Cfg.PreChange
	n.emit("prechange", pc.TDN, float64(pc.Cap), float64(pc.Lead))
	n.setVOQCaps(pc.Cap)
	for _, rack := range n.Racks {
		for _, h := range rack.Hosts {
			if h.NotifyPreChange != nil {
				h.NotifyPreChange(pc.TDN)
			}
		}
	}
}

// restoreVOQCaps puts the VOQs back to their base capacity at the end of a
// PreChange.TDN day.
func (n *Network) restoreVOQCaps() { n.setVOQCaps(n.baseVOQ) }

// setVOQCaps resizes every uplink VOQ of every rack (unless a resize fault
// suppresses individual queues).
func (n *Network) setVOQCaps(cap int) {
	n.emit("voq_caps", -1, float64(cap), float64(n.baseVOQ))
	for _, rack := range n.Racks {
		for q, v := range rack.voqs {
			if rf := n.Cfg.ResizeFault; rf != nil && rf(rack.ID, q, cap) {
				continue
			}
			v.SetCap(cap)
		}
	}
}

// KickAll re-kicks every VOQ link of every rack. Besides the nominal slot
// transitions, the fault injector calls it at drift-shifted boundaries,
// where the data plane's day/night edges no longer coincide with the
// control-plane events that normally kick.
func (n *Network) KickAll() {
	for _, rack := range n.Racks {
		for _, l := range rack.links {
			l.Kick()
		}
	}
}

// Release hands the network's storage back to its frame pool once a run is
// over: the wire buffer of every frame still inside — in a host NIC's FIFO,
// on a wire, in the propagation stage, in a VOQ — and then every pipe's FIFO
// array and propagation cells. It emits nothing and moves no counter, so it
// may follow the run's result. The network must not run again, and the
// deliveries still pending on its loop must never fire: reset the loop before
// the pool serves another network.
func (n *Network) Release() {
	for _, rack := range n.Racks {
		rack.uplink.Release()
		for q, v := range rack.voqs {
			v.Release(n.pool)
			rack.links[q].Release()
		}
	}
}

// Epoch reports the control plane's current schedule-transition counter.
func (n *Network) Epoch() uint32 { return n.epoch }

// CheckInvariants validates the accounting of every rack VOQ and the running
// occupancy count QueueLen reads. The runtime invariant checker
// (internal/invariant) calls it every eighth simulation event of a checked
// run.
func (n *Network) CheckInvariants() error {
	queued := 0
	for _, rack := range n.Racks {
		for _, v := range rack.voqs {
			if err := v.CheckInvariants(); err != nil {
				return fmt.Errorf("rack %d: %w", rack.ID, err)
			}
			queued += v.Len()
		}
	}
	if queued != n.queued {
		return fmt.Errorf("rdcn: running VOQ occupancy %d != %d queued", n.queued, queued)
	}
	return nil
}

// notifyAll emits the TDN-change notification to every host. The
// notification reaches a host as its (tdn, epoch) value, the content of the
// ICMP packet of Fig. 5a; what the packet costs is its latency, which the
// configured NotifyProfile models.
func (n *Network) notifyAll(tdn int, epoch uint32) {
	prof := n.Cfg.Notify
	n.emit("notify", tdn, float64(epoch), float64(len(n.Racks)*n.Cfg.HostsPerRack))
	for _, rack := range n.Racks {
		for i, h := range rack.Hosts {
			d := prof.Gen + sim.Dur(i)*prof.Stagger + prof.Net
			if prof.Jitter > 0 {
				d += sim.Dur(n.Loop.Rand().Int63n(int64(prof.Jitter)))
			}
			var fate NotifyFate
			if nf := n.Cfg.NotifyFault; nf != nil {
				fate = nf(rack.ID, i, tdn, epoch)
			}
			if !fate.Drop {
				n.deliverNotify(h, tdn, epoch, d+fate.Extra)
			}
			if fate.Dup {
				// The stale copy carries the same value as the original, like
				// a genuinely duplicated packet.
				n.deliverNotify(h, tdn, epoch, d+fate.DupExtra)
			}
		}
	}
}

// notifyCell carries one scheduled notification delivery, standing in for a
// per-delivery closure: cells are recycled through Rack.notifyFree with their
// callback bound exactly once, so the steady-state notification fan-out
// allocates nothing.
type notifyCell struct {
	n     *Network
	h     *Host
	tdn   int
	epoch uint32
	d     sim.Dur
	sp    trace.SpanID
	fn    func()
}

// deliverNotify schedules the delivery of (tdn, epoch) to h d from now. Each
// delivery, a duplicated notification's stale copy included, opens its own
// "notify" span, parented on the current epoch-occupancy span so the causal
// chain epoch -> notify -> cwnd_swap is explicit in the trace; the span
// closes at the delivery instant and is the implicit parent of whatever the
// host does in response (the TDTCP cwnd swap parents onto it).
func (n *Network) deliverNotify(h *Host, tdn int, epoch uint32, d sim.Dur) {
	sp := n.tracer.BeginSpan(trace.CatRDCN, int64(n.Loop.Now()), "notify", -1, tdn, n.epochSpan)
	r := h.Rack
	var c *notifyCell
	if k := len(r.notifyFree); k > 0 {
		c = r.notifyFree[k-1]
		r.notifyFree[k-1] = nil
		r.notifyFree = r.notifyFree[:k-1]
	} else {
		c = &notifyCell{n: n}
		c.fn = c.fire
	}
	c.h, c.tdn, c.epoch, c.d, c.sp = h, tdn, epoch, d, sp
	n.Loop.After(d, c.fn)
}

// fire delivers one notification, then recycles the cell.
//
// Hot path: runs once per host per schedule transition.
func (c *notifyCell) fire() {
	n, h, tdn, epoch, d, sp := c.n, c.h, c.tdn, c.epoch, c.d, c.sp
	r := h.Rack
	c.h = nil
	r.notifyFree = append(r.notifyFree, c)
	if h.NotifyTDN == nil {
		return
	}
	now := n.Loop.Now()
	n.tracer.EndSpan(trace.CatRDCN, int64(now), "notify", -1, tdn, sp, float64(epoch), float64(d))
	n.NotifyLat.Record(int64(d))
	n.tracer.PushParent(sp)
	h.NotifyTDN(tdn, epoch)
	n.tracer.PopParent()
}

// ActiveTDN reports the TDN active right now (ok=false during a night).
func (n *Network) ActiveTDN() (int, bool) {
	tdn, ok, _ := n.Cfg.Schedule.At(n.Loop.Now())
	return tdn, ok
}

// QueueLen reports the frames waiting in every VOQ of the network, from a
// running count: it costs the same on any rack count.
func (n *Network) QueueLen() int { return n.queued }

// InFlightFrames reports the number of data-plane frames currently inside the
// network: queued in or serializing through a host NIC pipe, waiting in a
// VOQ, or serializing/propagating through a VOQ link.
func (n *Network) InFlightFrames() uint64 {
	var fl uint64
	for _, rack := range n.Racks {
		fl += uint64(rack.uplink.InFlight())
		for _, v := range rack.voqs {
			fl += uint64(v.Len())
		}
		for _, l := range rack.links {
			fl += uint64(l.InFlight())
		}
	}
	return fl
}

// CheckConservation audits the frame ledger: every frame a host ever sent
// must be delivered, misrouted, dropped by a VOQ, dropped by an injected pipe
// fault, or still in flight. It holds at any instant of any run, faulted or
// not, and is the data-plane half of the "bytes sent == delivered + dropped +
// in-flight" conservation property.
func (n *Network) CheckConservation() error {
	var voqDrops, faultDrops uint64
	for _, rack := range n.Racks {
		faultDrops += rack.uplink.FaultDrops()
		for _, v := range rack.voqs {
			_, _, drops, _ := v.Stats()
			voqDrops += drops
		}
	}
	inFlight := n.InFlightFrames()
	sent, delivered, misrouted := n.FrameLedger()
	if got := delivered + misrouted + voqDrops + faultDrops + inFlight; got != sent {
		return fmt.Errorf("rdcn: frame conservation violated: sent %d != delivered %d + misrouted %d + voq drops %d + fault drops %d + in flight %d",
			sent, delivered, misrouted, voqDrops, faultDrops, inFlight)
	}
	return nil
}

// FrameLedger reports the cumulative conservation counters: frames sent by
// hosts, delivered to a Recv hook, and dropped as misrouted — summed over
// the per-rack ledgers (see Rack.FrameLedger).
func (n *Network) FrameLedger() (sent, delivered, misrouted uint64) {
	for _, rack := range n.Racks {
		sent += rack.framesIn
		delivered += rack.delivered
		misrouted += rack.misrouted
	}
	return sent, delivered, misrouted
}
