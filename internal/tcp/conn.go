package tcp

import (
	"fmt"

	"github.com/rdcn-net/tdtcp/internal/cc"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// Config parameterizes a connection. Zero values select data-center
// defaults matching the paper's testbed.
type Config struct {
	// MSS is the maximum payload per segment. Default 8960 (9000-byte
	// jumbo frames, §5.1, minus 40 header bytes).
	MSS int
	// RcvBuf is the receive buffer (advertised window ceiling) in bytes.
	// Default 4 MiB — large enough that single-path flows are never
	// flow-control limited, as in the paper's testbed.
	RcvBuf int
	// CC constructs the congestion-control algorithm, one instance per
	// path state. Default: CUBIC.
	CC cc.Factory
	// CCPerState, when non-nil, supplies a distinct factory per path state
	// (§3.5: "TDTCP could use multiple, different CCAs within a single
	// flow"). Entries beyond its length fall back to CC.
	CCPerState []cc.Factory
	// Policy manages path states. Default: NewSinglePath().
	Policy Policy
	// NumTDNs is the TDN count advertised in the TD_CAPABLE handshake
	// option. 0 or 1 disables TDTCP options on the wire.
	NumTDNs int
	// ECN enables ECT marking on data and ECE echo processing (DCTCP).
	ECN bool
	// MinRTO and MaxRTO bound the retransmission timer. The defaults (1 ms,
	// 100 ms, and initialRTO's 2 ms) reflect a data-center tuned stack; the
	// Internet defaults would dwarf the microsecond schedule.
	MinRTO, MaxRTO sim.Dur
	// Pacing, when >0, spreads a window of segments over the estimated
	// RTT at the given gain instead of bursting (the §5.2 remedy for
	// TDTCP's initial burst).
	Pacing float64
	// Pool, when non-nil, is the shared store the connection draws its
	// retransmission-queue entries from (see pool.go).
	// Connections that run on one event loop may share a pool; when nil,
	// NewConn creates a private one.
	Pool *Pool
}

// Loss detection is RACK-TLP (RFC 8985), as in Linux 5.8: time-based loss
// detection and tail-loss probes are always on.
const (
	// dupThresh is the classic fast-retransmit duplicate threshold.
	dupThresh = 3
	// initialRTO is the retransmission timeout before the first RTT sample.
	initialRTO = 2 * sim.Millisecond
)

func (cfg *Config) fillDefaults() {
	if cfg.MSS == 0 {
		cfg.MSS = 8960
	}
	if cfg.RcvBuf == 0 {
		cfg.RcvBuf = 4 << 20
	}
	if cfg.CC == nil {
		cfg.CC = func() cc.Algorithm { return cc.NewCubic() }
	}
	if cfg.Policy == nil {
		cfg.Policy = NewSinglePath()
	}
	if cfg.MinRTO == 0 {
		cfg.MinRTO = 1 * sim.Millisecond
	}
	if cfg.MaxRTO == 0 {
		cfg.MaxRTO = 100 * sim.Millisecond
	}
}

// connState is the connection lifecycle state (a deliberately small subset
// of the full TCP state machine; the evaluation uses long-lived flows).
type connState uint8

const (
	stClosed connState = iota
	stListen
	stSynSent
	stSynRcvd
	stEstablished
	stFinWait   // our FIN sent, awaiting ACK
	stCloseWait // peer FIN received
	stDone
	stReleased // Release was called: queue entries returned, every entry point a no-op
)

// Stats aggregates per-connection instrumentation counters.
type Stats struct {
	SegsSent, SegsRcvd    uint64
	BytesSent, BytesAcked int64

	Retransmits     uint64 // segments retransmitted (all causes)
	FastRetransmits uint64
	RTOFires        uint64
	TLPProbes       uint64

	// ReorderEvents counts ACKs that exposed a sequence hole below the
	// highest SACKed sequence; ReorderPackets counts the segments sitting
	// in such holes when first exposed (Fig. 10a's events / packets).
	ReorderEvents  uint64
	ReorderPackets uint64
	// LossMarks counts segments marked lost by the detectors;
	// FilteredMarks counts candidates suppressed by the TDTCP cross-TDN
	// filter (§3.4).
	LossMarks     uint64
	FilteredMarks uint64

	// Receiver side.
	BytesDelivered int64  // cumulative in-order payload
	DupSegsRcvd    uint64 // spurious retransmissions observed (ground truth)
	DSACKsSent     uint64

	Undos uint64 // spurious-recovery undos (D-SACK driven)

	RTTSamples        uint64
	RTTSamplesDropped uint64 // type-3 mixed-TDN samples discarded (§4.4)

	// TDN-change notification gating (graceful degradation under a faulty
	// control channel): received counts every delivery attempt, stale the
	// reordered ones rejected by the epoch gate, dup the exact replays.
	NotifiesRcvd  uint64
	NotifiesStale uint64
	NotifiesDup   uint64
}

// Conn is one endpoint of a simulated TCP connection. A Conn both sends
// (bulk data from a virtual application) and receives (delivering in-order
// bytes to a sink and generating ACKs).
type Conn struct {
	Loop *sim.Loop
	// Out transmits a segment toward the peer (typically rdcn.Host.Send).
	// The segment is only valid for the duration of the call: the connection
	// reuses its backing storage for the next transmission. Implementations
	// that retain it must deep-copy it first: Clone it, or copy it into
	// storage of their own, as MPTCP's subflow gate does.
	Out func(*packet.Segment)

	cfg    Config
	policy Policy
	states []*PathState

	pool *Pool // retransmission-queue entries; nil once released

	LocalAddr, RemoteAddr uint32
	LocalPort, RemotePort uint16

	state     connState
	tdEnabled bool

	// Sender.
	iss           packet.Seq
	sndUna        packet.Seq
	sndNxt        packet.Seq
	rtx           rtxQueue
	backlog       int64 // bytes the app still wants to send; <0 = unbounded
	finQueued     bool
	peerWnd       uint32
	highestSacked packet.Seq

	// RACK state (RFC 8985).
	rackXmit   sim.Time
	rackEndSeq packet.Seq

	// Reordering-episode tracking (Fig. 10 instrumentation).
	gapOpen bool
	gapMax  int

	// Timer: a single retransmission timer that is either a TLP probe
	// timer or an RTO, Linux-style, armed exactly while the retransmission
	// queue is non-empty. onTimerFn/paceFn are the callbacks, bound once at
	// construction so (re)arming never allocates a closure.
	timer       sim.Timer
	onTimerFn   func()
	timerTLP    bool // the armed timer is a TLP probe, not an RTO
	backoff     uint
	tlpInFlight bool

	// Pacing.
	paceNext  sim.Time
	paceTimer sim.Timer
	paceFn    func()
	// lastTxAt anchors the TLP probe timer.
	lastTxAt sim.Time

	// Receiver.
	irs        packet.Seq
	rcv        packet.Reassembly // rcv.Next is RCV.NXT
	dsack      packet.SeqRange   // pending D-SACK block (dsackValid set)
	dsackValid bool
	peerTD     bool
	peerTDNs   int

	// Scratch storage reused across the data path so steady-state operation
	// allocates nothing: one outgoing segment (see the Out contract), the
	// per-state delivery and RTO-touch tallies. Retransmission-queue entries
	// come from and return to the pool; the queue's backing array is the
	// connection's own, kept across Release and Reopen.
	outSeg     packet.Segment
	delivered  []int
	rtoTouched []bool

	// epochs drops stale and duplicate TDN notifications.
	epochs packet.EpochGate

	Stats Stats

	// OnDone, if set, is called once when the sender has delivered all
	// offered data and its FIN is acknowledged — the flow-completion
	// instant FCT accounting measures against.
	OnDone func(now sim.Time)
	// TxSegmentHook, if set, is invoked on every outgoing data segment just
	// before serialization, with the retransmission-queue entry and the
	// header (MPTCP attaches its DSS mapping here).
	TxSegmentHook func(seg *TxSeg, h *packet.TCPHeader)
	// RxDataHook, if set, observes every arriving data segment's header
	// before receiver processing (MPTCP extracts the DSS mapping here).
	RxDataHook func(h *packet.TCPHeader)

	// Tracer, when non-nil, receives structured data-path events (CatTCP)
	// and congestion-control decisions (CatCC). Wire it with SetTracer so
	// the CC instances are hooked too; FlowID labels every event.
	Tracer *trace.Tracer
	// FlowID labels this connection's trace events (-1 = unlabeled).
	FlowID int
	// RTTHists, when populated, records every accepted RTT sample
	// (nanoseconds) into the histogram at the sample's target state index
	// (one per TDN under TDTCP). Entries may be nil and the slice may be
	// shorter than the state count; unmatched samples are simply unrecorded.
	RTTHists []*trace.Histogram
}

// NewConn constructs a connection. out transmits serialized segments toward
// the peer. It allocates the connection's storage — the Conn, one contiguous
// block of path states with a congestion-control instance each, the
// retransmission queue's backing array, the scratch slices, the two bound
// timer callbacks — and leaves every starting value to
// init, the path Reopen takes over the same storage.
func NewConn(loop *sim.Loop, cfg Config, out func(*packet.Segment)) *Conn {
	cfg.fillDefaults()
	if cfg.Pool == nil {
		cfg.Pool = new(Pool)
	}
	c := &Conn{Loop: loop, cfg: cfg}
	c.onTimerFn = c.onTimer
	c.paceFn = func() { c.trySend() }
	n := max(cfg.Policy.NumStates(), 1)
	arr := make([]PathState, n)
	c.states = make([]*PathState, n)
	for i := range arr {
		mk := cfg.CC
		if i < len(cfg.CCPerState) && cfg.CCPerState[i] != nil {
			mk = cfg.CCPerState[i]
		}
		arr[i].CC = mk()
		c.states[i] = &arr[i]
	}
	c.delivered = make([]int, n)
	c.rtoTouched = make([]bool, n)
	c.outSeg.TCP.SACK = make([]packet.SACKBlock, 0, 4)
	c.rtx.segs = make([]*TxSeg, 0, 64)
	c.init(out)
	return c
}

// init puts the connection in its starting state over the storage it holds:
// NewConn's, just allocated, or Reopen's, left by the flow before. It is the
// one place a connection's starting values are written. The struct is
// assigned whole from a literal that names only what carries over (the loop,
// the configuration, the storage), so every other field, one added later
// included, starts a reopened connection from its zero value exactly as it
// starts a new one; the congestion-control instances and the policy are
// returned to their constructors' state by their own Reset.
func (c *Conn) init(out func(*packet.Segment)) {
	sack := c.outSeg.TCP.SACK[:0]
	*c = Conn{
		Loop: c.Loop, Out: out, cfg: c.cfg, policy: c.cfg.Policy, pool: c.cfg.Pool,
		state: stClosed, FlowID: -1,
		states: c.states, delivered: c.delivered, rtoTouched: c.rtoTouched,
		rcv: c.rcv, rtx: rtxQueue{segs: c.rtx.segs[:0]},
		onTimerFn: c.onTimerFn, paceFn: c.paceFn,
	}
	c.outSeg.TCP.SACK = sack
	c.rcv.Reset(packet.Seq{})
	clear(c.delivered)
	clear(c.rtoTouched)
	for i, st := range c.states {
		st.CC.Reset()
		*st = PathState{TDN: uint8(i), CC: st.CC, RTO: initialRTO}
	}
	c.pool.live++
	c.policy.Reset()
	c.policy.Attach(c)
}

// Reopen starts a released connection's next life: the same initialisation
// NewConn performs, over the storage Release left it holding, with its
// configuration, congestion-control instances and policy, so the result is
// what NewConn would return for that Config and differs only in address. out
// replaces Out; addresses, ports, hooks and tracer are the caller's to set
// again, as after NewConn. It panics unless the connection was released: a
// live one would lose its outstanding entries and be counted live twice.
func (c *Conn) Reopen(out func(*packet.Segment)) {
	if c.state != stReleased {
		panic(fmt.Sprintf("tcp: Reopen of a connection that was not released (%v)", c))
	}
	c.init(out)
}

// Release ends the connection's life: the retransmission-queue entries still
// outstanding go back to the pool for the next connection, the retransmission
// and pacing timers are stopped, and the connection becomes inert: Input,
// Notify and the transmit engine ignore it. Stats and path states stay
// readable until Reopen, for which the connection keeps what it allocated,
// the queue's backing array included, cleared so it pins no entry. It drops
// what its user wired in — Out, OnDone, RTTHists and the tracer — so that a
// released connection holds nothing of the network or run it served. It stops
// neither of the timers a Policy arms itself: the TDTCP deadman is the
// caller's to stop first, and a reTCP reaction (Circuit) still fires, at most
// 2*react after its notification.
func (c *Conn) Release() {
	if c.state == stReleased {
		return
	}
	for _, seg := range c.rtx.segs[c.rtx.head:] {
		c.pool.putTxSeg(seg)
	}
	// popAcked's compaction leaves copies past the queue's end, so the whole
	// array is cleared.
	segs := c.rtx.segs[:cap(c.rtx.segs)]
	clear(segs)
	c.rtx = rtxQueue{segs: segs[:0]}
	c.pool.live--
	c.pool = nil
	c.state = stReleased
	c.timer.Stop()
	c.paceTimer.Stop()
	c.Out, c.OnDone, c.RTTHists = nil, nil, nil
	c.SetTracer(nil, -1)
}

// SetTracer attaches a tracer and flow label to the connection and hooks
// every path state's congestion-control instance so CC decisions surface as
// CatCC events. Pass nil to detach. Safe to call before or after the
// handshake; CC events carry the state's TDN and the algorithm name.
func (c *Conn) SetTracer(tr *trace.Tracer, flow int) {
	c.Tracer = tr
	c.FlowID = flow
	for i, st := range c.states {
		hook, ok := st.CC.(interface{ SetTrace(cc.TraceFunc) })
		if !ok {
			continue
		}
		if !tr.Enabled(trace.CatCC) {
			// No sink will ever see CatCC (flight-only tracers exclude it
			// by default): skip the closure so attaching the always-on
			// flight recorder stays allocation-free.
			hook.SetTrace(nil)
			continue
		}
		tdn, name := i, st.CC.Name()
		hook.SetTrace(func(event string, a, b float64) {
			if tr.Enabled(trace.CatCC) {
				tr.Emit(trace.CatCC, int64(c.Loop.Now()), event, flow, tdn, a, b, name)
			}
		})
	}
}

// emit reports a CatTCP data-path event; a no-op unless a tracer is attached
// with the category enabled (nil-check plus branch).
func (c *Conn) emit(name string, tdn int, a, b float64, s string) {
	if c.Tracer.Enabled(trace.CatTCP) {
		c.Tracer.Emit(trace.CatTCP, int64(c.Loop.Now()), name, c.FlowID, tdn, a, b, s)
	}
}

// emitCA reports a congestion-avoidance state transition on one path state.
func (c *Conn) emitCA(st *PathState, from CAState) {
	if c.Tracer.Enabled(trace.CatTCP) && from != st.CA {
		c.Tracer.Emit(trace.CatTCP, int64(c.Loop.Now()), "ca_state",
			c.FlowID, int(st.TDN), float64(from), float64(st.CA), st.CA.String())
	}
}

// beginRecoverySpan opens the per-state "recovery" causal span at a
// Recovery/Loss entry. Idempotent across a Recovery -> Loss escalation: the
// episode stays one span until endRecoverySpan closes it.
func (c *Conn) beginRecoverySpan(st *PathState) {
	if st.recSpan == 0 {
		st.recSpan = c.Tracer.BeginSpan(trace.CatTCP, int64(c.Loop.Now()),
			"recovery", c.FlowID, int(st.TDN), c.Tracer.Parent())
	}
}

// endRecoverySpan closes the state's recovery span. The E payload carries
// the CA state the episode ends in (A) and whether it was a D-SACK undo (B:
// 1 = spurious episode undone, 0 = genuine recovery completed).
func (c *Conn) endRecoverySpan(st *PathState, undo bool) {
	if st.recSpan == 0 {
		return
	}
	b := 0.0
	if undo {
		b = 1.0
	}
	c.Tracer.EndSpan(trace.CatTCP, int64(c.Loop.Now()),
		"recovery", c.FlowID, int(st.TDN), st.recSpan, float64(st.CA), b)
	st.recSpan = 0
}

// States exposes the path states (read-mostly; policies mutate them).
func (c *Conn) States() []*PathState { return c.states }

// ActiveState returns the state governing new transmissions.
func (c *Conn) ActiveState() *PathState { return c.states[c.policy.Active()] }

// Config returns the effective configuration.
func (c *Conn) Config() Config { return c.cfg }

// SndUna returns the oldest unacknowledged sequence number.
func (c *Conn) SndUna() packet.Seq { return c.sndUna }

// SndNxt returns the next sequence number to be sent.
func (c *Conn) SndNxt() packet.Seq { return c.sndNxt }

// Delivered returns the payload bytes delivered in order (Stats.BytesDelivered).
func (c *Conn) Delivered() int64 { return c.Stats.BytesDelivered }

// RelSeq translates an absolute data sequence number into a 0-based stream
// offset (the SYN consumes one sequence number).
func (c *Conn) RelSeq(seq packet.Seq) uint32 { return uint32(seq.Diff(c.iss)) - 1 }

// AbsSeq is the inverse of RelSeq.
func (c *Conn) AbsSeq(off uint32) packet.Seq { return c.iss.Add(int(off) + 1) }

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.state >= stEstablished && c.state < stDone }

// TDEnabled reports whether the TD_CAPABLE handshake negotiated TDTCP
// options on this connection.
func (c *Conn) TDEnabled() bool { return c.tdEnabled }

// totalPacketsOut is the §4.3 "all TDNs" sum used to validate ACKs. Every
// queue entry counts exactly once, in the packetsOut of the TDN it is tagged
// with (CheckInvariants proves the equality), so the sum is the queue length.
func (c *Conn) totalPacketsOut() int { return c.rtx.len() }

// Listen places the connection in passive-open state.
func (c *Conn) Listen() {
	if c.state != stClosed {
		panic("tcp: Listen on non-closed conn")
	}
	c.state = stListen
}

// Connect performs an active open and queues bytes of application data
// (bytes < 0 streams indefinitely).
func (c *Conn) Connect(bytes int64) {
	if c.state != stClosed {
		panic("tcp: Connect on non-closed conn")
	}
	c.backlog = bytes
	c.iss = packet.SeqOf(c.Loop.Rand().Uint32())
	c.sndUna = c.iss
	c.sndNxt = c.iss
	c.highestSacked = c.iss
	c.state = stSynSent
	c.sendSYN(false)
}

// QueueBytes adds application data to an established or connecting flow.
func (c *Conn) QueueBytes(bytes int64) {
	if c.backlog < 0 {
		return
	}
	c.backlog += bytes
	c.trySend()
}

// Backlog returns unqueued application bytes remaining (<0 = unbounded).
func (c *Conn) Backlog() int64 { return c.backlog }

// Close queues a FIN after any remaining data. Calling Close before the
// handshake completes defers the FIN until after the data drains.
func (c *Conn) Close() {
	switch c.state {
	case stSynSent, stSynRcvd, stEstablished, stCloseWait:
		c.finQueued = true
		c.trySend()
	default:
		// stListen has no peer; stFinWait already sent its FIN; stClosed
		// and stDone have nothing left to close.
	}
}

// Notify delivers a TDN-change notification (the parsed ICMP of Fig. 5a) to
// the connection's policy. Stale and duplicate epochs are discarded using
// serial-number arithmetic (RFC 1982), so the gate survives the epoch counter
// wrapping past math.MaxUint32. Epoch 0 bypasses the gate (tests and direct
// drivers that do not maintain epochs; the network's counter skips it).
// Whether the transmit engine runs is the policy's decision (Policy.OnNotify).
func (c *Conn) Notify(tdn int, epoch uint32) {
	if c.state == stReleased {
		return
	}
	c.Stats.NotifiesRcvd++
	switch c.epochs.Pass(epoch) {
	case packet.EpochDup:
		c.Stats.NotifiesDup++
		c.emit("notify_dup", tdn, float64(epoch), 0, "")
		return
	case packet.EpochStale:
		c.Stats.NotifiesStale++
		c.emit("notify_stale", tdn, float64(epoch), float64(c.epochs.Last()), "")
		return
	case packet.EpochNew:
	}
	c.policy.OnNotify(tdn)
}

// Kick re-runs the transmit engine. Policies call it after mutating path
// state outside the ACK path (a TDTCP switch, by notification or by the
// deadman fallback), where a freshly opened window would otherwise sit idle
// until the next ACK.
func (c *Conn) Kick() { c.trySend() }

// KickRecovery restarts a stalled recovery: when the active state sits in
// Recovery/Loss with an empty pipe and lost segments, PRR has no delivery
// credit and no ACK clock, so nothing would move until the RTO. Sending one
// lost segment is plain packet conservation. MPTCP's scheduler calls this on
// the subflow it activates.
func (c *Conn) KickRecovery() {
	if c.state == stReleased {
		return
	}
	st := c.ActiveState()
	if (st.CA != CARecovery && st.CA != CALoss) || st.InFlight() > 0 || st.LostOut == 0 {
		return
	}
	var victim *TxSeg
	c.rtx.forEach(func(seg *TxSeg) bool {
		if seg.Lost && !seg.Sacked {
			victim = seg
			return false
		}
		return true
	})
	if victim != nil {
		c.Stats.FastRetransmits++
		c.transmitSeg(victim, true)
		c.armTimer()
	}
}

// CircuitUp forwards an explicit circuit-up signal to circuit-aware
// congestion control (reTCP) and runs the transmit engine for the ramp.
func (c *Conn) CircuitUp() {
	for _, st := range c.states {
		if ca, ok := st.CC.(cc.CircuitAware); ok {
			ca.OnCircuitUp(c.Loop.Now())
		}
	}
	c.trySend()
}

// CircuitDown signals circuit teardown to circuit-aware CC.
func (c *Conn) CircuitDown() {
	for _, st := range c.states {
		if ca, ok := st.CC.(cc.CircuitAware); ok {
			ca.OnCircuitDown(c.Loop.Now())
		}
	}
}

// --- segment construction ------------------------------------------------

// newSegment resets the connection's scratch segment for the next
// transmission. The returned pointer is handed to Out and reused afterwards
// (the Out contract); the SACK backing array is preserved across resets so
// fillSACK appends without allocating.
//
// Hot path: runs once per transmitted segment.
func (c *Conn) newSegment(flags uint8) *packet.Segment {
	s := &c.outSeg
	sack := s.TCP.SACK[:0]
	*s = packet.Segment{
		Src: c.LocalAddr, Dst: c.RemoteAddr, TTL: 64, Proto: packet.ProtoTCP,
		TCP: packet.TCPHeader{
			SrcPort: c.LocalPort, DstPort: c.RemotePort,
			Flags:  flags,
			Window: uint32(c.rcvWindow()),
			Ack:    c.rcv.Next.Uint32(),
			SACK:   sack,
		},
	}
	if c.cfg.ECN && flags&packet.FlagSYN == 0 {
		s.ECN = packet.ECNECT0
	}
	return s
}

func (c *Conn) rcvWindow() int {
	w := c.cfg.RcvBuf - c.rcv.Held()
	if w < 0 {
		w = 0
	}
	return w
}

func (c *Conn) sendSYN(ack bool) {
	flags := uint8(packet.FlagSYN)
	seq := c.iss
	if ack {
		flags |= packet.FlagACK
	}
	s := c.newSegment(flags)
	s.TCP.Seq = seq.Uint32()
	s.TCP.SACKPermitted = true
	if c.cfg.NumTDNs > 1 {
		s.TCP.TDCapable = true
		s.TCP.NumTDNs = uint8(c.cfg.NumTDNs)
	}
	if c.sndNxt == c.iss {
		// First transmission: the SYN occupies one sequence number and,
		// per Appendix A.2, is always tracked under TDN 0.
		c.sndNxt = c.iss.Add(1)
		seg := c.pool.getTxSeg()
		seg.Seq, seg.Len, seg.TDN = seq, 1, 0
		seg.SentAt, seg.FirstSentAt = c.Loop.Now(), c.Loop.Now()
		c.rtx.push(seg)
		c.states[0].PacketsOut++
	}
	c.Stats.SegsSent++
	c.Out(s)
	c.armTimer()
}

// transmitSeg transmits (or retransmits) the given range as one segment.
func (c *Conn) transmitSeg(seg *TxSeg, isRetrans bool) {
	now := c.Loop.Now()
	dataTDN := c.policy.DataTDN()
	if isRetrans {
		st := c.states[seg.TDN]
		st.undoRetrans++ // D-SACK undo bookkeeping on the recovering state
		// The retransmission moves the segment to the current TDN: its
		// pipe accounting follows (§4.3 "any TDN" scheduling, with the
		// copy in flight belonging to the TDN that carries it).
		st.PacketsOut--
		if seg.Lost {
			st.LostOut--
			seg.Lost = false
		}
		if seg.Retrans {
			st.RetransOut--
		}
		nst := c.states[dataTDN]
		nst.PacketsOut++
		nst.RetransOut++
		seg.Retrans = true
		seg.EverRetrans = true
		seg.Retransmits++
		c.Stats.Retransmits++
		c.emit("retransmit", int(dataTDN), float64(c.RelSeq(seg.Seq)), float64(seg.Retransmits), "")
	}
	seg.TDN = dataTDN
	seg.SentAt = now
	c.lastTxAt = now

	if seg.fin {
		c.sendFIN(seg.Seq)
		return
	}
	s := c.newSegment(packet.FlagACK | packet.FlagPSH)
	s.TCP.Seq = seg.Seq.Uint32()
	s.TCP.PayloadLen = seg.Len
	c.attachTDOption(s, true)
	if c.TxSegmentHook != nil {
		c.TxSegmentHook(seg, &s.TCP)
	}
	c.Stats.SegsSent++
	c.Stats.BytesSent += int64(seg.Len)
	c.Out(s)
}

// attachTDOption adds the TD_DATA_ACK option when negotiated. Data segments
// carry both the data TDN and (piggybacked ACK) the ack TDN.
func (c *Conn) attachTDOption(s *packet.Segment, hasData bool) {
	if !c.tdEnabled {
		return
	}
	s.TCP.TDPresent = true
	s.TCP.TDFlags = packet.TDFlagACK
	s.TCP.AckTDN = c.policy.AckTDN()
	s.TCP.DataTDN = packet.NoTDN
	if hasData {
		s.TCP.TDFlags |= packet.TDFlagData
		s.TCP.DataTDN = c.policy.DataTDN()
	}
}

// --- transmit path ---------------------------------------------------------

// trySend drives the output engine: retransmissions first (any-TDN rule),
// then new data, gated by the active state's congestion window and the
// peer's receive window.
func (c *Conn) trySend() {
	if c.state != stEstablished && c.state != stCloseWait && c.state != stFinWait {
		return
	}
	active := c.ActiveState()
	activeTDN := uint8(c.policy.Active())
	// cwnd-based budget protects the pipe; PRR additionally throttles the
	// active TDN's own recovery (cross-TDN repairs are "retransmitted at
	// the earliest opportunity", §4.3, and bypass PRR).
	pipeBudget := func() int {
		return int(active.Cwnd()) - active.InFlight()
	}
	budget := func() int {
		b := pipeBudget()
		if prr := active.prrBudget(); prr < b {
			b = prr
		}
		return b
	}

	// Retransmissions: schedule when any TDN has lost segments (§4.3
	// "any TDN": logical OR over states).
	anyLost := false
	for _, st := range c.states {
		if st.LostOut > 0 && (st.CA == CARecovery || st.CA == CALoss) {
			anyLost = true
			break
		}
	}
	if anyLost {
		c.rtx.forEach(func(seg *TxSeg) bool {
			if pipeBudget() <= 0 {
				return false
			}
			if seg.Lost && !seg.Sacked {
				sameTDN := seg.TDN == activeTDN
				if sameTDN && budget() <= 0 {
					return true // PRR-throttled; later same-TDN segs too, but
					// cross-TDN repairs behind them may still go
				}
				if !c.paceGate() {
					return false
				}
				c.Stats.FastRetransmits++
				if sameTDN {
					active.prrSpend()
				}
				c.transmitSeg(seg, true)
			}
			return true
		})
	}

	// New data.
	for budget() > 0 {
		if !c.sendNewSegment() {
			break
		}
	}
	c.armTimer()
}

// sendNewSegment emits one new MSS (or smaller) segment if application data
// and windows allow; reports whether a segment was sent.
func (c *Conn) sendNewSegment() bool {
	if c.backlog == 0 {
		c.maybeSendFIN()
		return false
	}
	inFlightBytes := uint32(c.sndNxt.Diff(c.sndUna))
	if c.peerWnd > 0 && inFlightBytes+uint32(c.cfg.MSS) > c.peerWnd {
		return false
	}
	if !c.paceGate() {
		return false
	}
	n := c.cfg.MSS
	if c.backlog > 0 && int64(n) > c.backlog {
		n = int(c.backlog)
	}
	now := c.Loop.Now()
	seg := c.pool.getTxSeg()
	seg.Seq, seg.Len = c.sndNxt, n
	seg.SentAt, seg.FirstSentAt = now, now
	c.sndNxt = c.sndNxt.Add(n)
	if c.backlog > 0 {
		c.backlog -= int64(n)
	}
	c.rtx.push(seg)
	st := c.states[c.policy.DataTDN()]
	st.PacketsOut++
	st.prrSpend()
	c.transmitSeg(seg, false)
	return true
}

func (c *Conn) maybeSendFIN() {
	if !c.finQueued || c.state == stFinWait {
		return
	}
	now := c.Loop.Now()
	seg := c.pool.getTxSeg()
	seg.Seq, seg.Len, seg.TDN = c.sndNxt, 1, c.policy.DataTDN()
	seg.SentAt, seg.FirstSentAt = now, now
	seg.fin = true
	c.sndNxt = c.sndNxt.Add(1)
	c.rtx.push(seg)
	c.states[seg.TDN].PacketsOut++
	c.state = stFinWait
	c.sendFIN(seg.Seq)
	c.armTimer()
}

// sendFIN puts the FIN that occupies seq on the wire. Its retransmission
// queue entry is marked (TxSeg.fin), so transmitSeg resends it here too, the
// way fireRTO resends the SYN through sendSYN: a flag on an empty segment,
// never a byte of data.
func (c *Conn) sendFIN(seq packet.Seq) {
	s := c.newSegment(packet.FlagFIN | packet.FlagACK)
	s.TCP.Seq = seq.Uint32()
	c.attachTDOption(s, false)
	c.Stats.SegsSent++
	c.Out(s)
}

// paceGate enforces optional packet pacing: returns false when the next
// transmission slot has not arrived yet (and schedules a resume).
func (c *Conn) paceGate() bool {
	if c.cfg.Pacing <= 0 {
		return true
	}
	now := c.Loop.Now()
	if now < c.paceNext {
		// One pending pace wake-up per connection: trySend probes the gate
		// repeatedly (retransmissions and new data), and scheduling a wake
		// per probe would snowball.
		if !c.paceTimer.Active() {
			c.paceTimer = c.Loop.At(c.paceNext, c.paceFn)
		}
		return false
	}
	st := c.ActiveState()
	if st.SRTT > 0 && st.Cwnd() > 0 {
		gap := sim.Dur(float64(st.SRTT) / (st.Cwnd() * c.cfg.Pacing))
		c.paceNext = now.Add(gap)
	}
	return true
}

// --- timers ---------------------------------------------------------------

// armTimer (re)arms the retransmission timer: a TLP probe timer while the
// active path is healthy (RFC 8985 §7.2), otherwise a conventional RTO for
// the oldest outstanding segment via the policy (§4.4). Like Linux's
// tcp_rearm_rto it stops the timer when nothing is outstanding and re-arms it
// only when the deadline moved.
//
// Deadlines are anchored to transmission times (head.SentAt for the RTO,
// the most recent transmission for the TLP probe), NOT to the current time:
// armTimer runs on every ACK and notification, and anchoring at "now" would
// let a steady stream of TDN-change notifications postpone the RTO forever.
func (c *Conn) armTimer() {
	head := c.rtx.headSeg()
	if head == nil {
		c.timer.Stop()
		return
	}
	// TLP arms while the active path is healthy and nothing is marked lost
	// anywhere; a recovery on an inactive TDN must not suppress tail probes
	// for the path that is actually carrying traffic.
	act := c.ActiveState()
	healthy := act.CA == CAOpen || act.CA == CADisorder
	for _, st := range c.states {
		if st.LostOut > 0 {
			healthy = false
			break
		}
	}
	useTLP := healthy && !c.tlpInFlight && c.state >= stEstablished
	var deadline sim.Time
	if useTLP {
		srtt := c.ActiveState().SRTT
		if srtt == 0 {
			srtt = initialRTO / 2
		}
		d := 2 * srtt
		if c.totalPacketsOut() == 1 {
			d += srtt / 2
		}
		deadline = c.lastTxAt.Add(d)
	} else {
		b := c.backoff
		if b > 16 {
			b = 16 // exponential backoff saturates well past MaxRTO
		}
		d := c.policy.SegmentRTO(head.TDN) << b
		if d <= 0 || d > c.cfg.MaxRTO {
			d = c.cfg.MaxRTO
		}
		deadline = head.SentAt.Add(d)
	}
	if deadline <= c.Loop.Now() {
		deadline = c.Loop.Now().Add(sim.Microsecond)
	}
	c.timerTLP = useTLP
	if c.timer.Active() {
		if c.timer.When() == deadline {
			return
		}
		c.timer.Stop()
	}
	c.timer = c.Loop.At(deadline, c.onTimerFn)
}

// onTimer dispatches the expired retransmission timer to the probe or the
// timeout armTimer armed it for.
func (c *Conn) onTimer() {
	if c.timerTLP {
		c.fireTLP()
		return
	}
	c.fireRTO()
}

// fireTLP sends a tail-loss probe: new data when available, otherwise the
// highest-sequence outstanding segment (RFC 8985 §7.3).
func (c *Conn) fireTLP() {
	c.tlpInFlight = true
	c.Stats.TLPProbes++
	c.emit("tlp", c.policy.Active(), float64(c.totalPacketsOut()), 0, "")
	if c.backlog != 0 && c.sendNewSegment() {
		c.armTimer()
		return
	}
	if tail := c.rtx.tailSeg(); tail != nil && !tail.Sacked {
		c.transmitSeg(tail, true)
	}
	c.armTimer()
}

// fireRTO handles a retransmission timeout: every outstanding un-SACKed
// segment is marked lost, the head state enters Loss, and the head segment
// is retransmitted with exponential backoff.
func (c *Conn) fireRTO() {
	head := c.rtx.headSeg()
	if head == nil {
		return
	}
	c.Stats.RTOFires++
	if c.state == stSynSent || c.state == stSynRcvd {
		// Handshake retransmission; backoff saturates like the established
		// path's, so a long-unanswered SYN cannot overflow the shift count.
		if c.backoff < 16 {
			c.backoff++
		}
		c.sendSYN(c.state == stSynRcvd)
		return
	}
	now := c.Loop.Now()
	c.emit("rto_fire", int(head.TDN), float64(c.backoff), float64(c.totalPacketsOut()), "")
	// Mark losses and move every affected state to Loss. touched is indexed
	// by TDN (not a map) so the Loss transitions below happen in state order
	// — map iteration would make the event sequence, and thus any attached
	// trace, nondeterministic across runs.
	touched := c.rtoTouched
	for i := range touched {
		touched[i] = false
	}
	c.rtx.forEach(func(seg *TxSeg) bool {
		if !seg.Sacked && !seg.Lost {
			st := c.states[seg.TDN]
			st.LostOut++
			seg.Lost = true
			if seg.Retrans {
				st.RetransOut--
				seg.Retrans = false
			}
			touched[seg.TDN] = true
		}
		return true
	})
	for tdn, hit := range touched {
		if !hit {
			continue
		}
		st := c.states[tdn]
		if st.CA != CALoss {
			from := st.CA
			st.CA = CALoss
			st.RecoveryPoint = c.sndNxt
			st.undoPossible = false
			st.enterRecoveryPRR()
			st.CC.OnRTO(now, st.InFlight())
			c.beginRecoverySpan(st)
			c.emitCA(st, from)
		}
	}
	if c.backoff < 16 {
		c.backoff++
	}
	// Retransmit the oldest lost segment immediately (the head itself may
	// already be SACKed).
	var victim *TxSeg
	c.rtx.forEach(func(seg *TxSeg) bool {
		if seg.Lost && !seg.Sacked {
			victim = seg
			return false
		}
		return true
	})
	if victim != nil {
		c.transmitSeg(victim, true)
	}
	c.armTimer()
}

func (c *Conn) String() string {
	if c.state == stReleased {
		return "conn(released)"
	}
	return fmt.Sprintf("conn(%s una=%d nxt=%d states=%d active=%d)",
		[]string{"closed", "listen", "synsent", "synrcvd", "estab", "finwait", "closewait", "done"}[c.state],
		uint32(c.sndUna.Diff(c.iss)), uint32(c.sndNxt.Diff(c.iss)), len(c.states), c.policy.Active())
}
