// Package mptcp models Multipath TCP the way the paper's §2.2 baseline uses
// it: one subflow pinned to each time-division network, a tdm_schd scheduler
// that steers all new data onto the subflow whose network is currently
// active, a two-level sequence space (per-subflow sequence numbers plus a
// connection-level data sequence number carried in a per-segment DSS
// mapping), and connection-level reinjection of segments stranded on an
// inactive subflow.
//
// Each subflow is a complete tcp.Conn with its own congestion control; the
// connection-level machinery lives here, and so does the pinning: subflow k
// transmits through gate k, which holds its segments, data and ACKs alike, at
// the host while k is not the scheduler's active subflow and releases them
// when a notification the epoch check accepts makes it so (§2.2, §3.3). The
// pathology the paper measures — flow-control stalls because ACKs for data
// sent on the optical subflow cannot return until the optical network is next
// active, forcing reinjection on the packet subflow — emerges from exactly
// this structure.
package mptcp

import (
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
)

// Config parameterizes an MPTCP connection.
type Config struct {
	// NumSubflows is the number of subflows (= TDNs). Default 2.
	NumSubflows int
	// Sub is the per-subflow TCP configuration template. Policy must be
	// nil (subflows are single-path by construction).
	Sub tcp.Config
}

const (
	// chunkSegs is how many MSS-sized segments are assigned to a subflow
	// per scheduling decision.
	chunkSegs = 8
	// reinjectDelay rate-limits connection-level reinjection: when the
	// shared send buffer is exhausted by data stranded on an inactive
	// subflow, the scheduler reinjects that data onto the active subflow at
	// most once per reinjectDelay (MPTCP's opportunistic retransmission is
	// lazy: it fires on window/buffer blockage, not on path switches).
	reinjectDelay = 100 * sim.Microsecond
	// pumpInterval is the scheduler's polling cadence.
	pumpInterval = 20 * sim.Microsecond
	// sendBuf caps connection-level outstanding data (assigned to subflows
	// but not yet acknowledged at the subflow level), modelling the shared
	// MPTCP send buffer whose exhaustion causes the §2.2 flow-control
	// stalls: 64 KiB, the kernel's un-autotuned wmem starting point, which
	// short-lived scheduling windows never grow past.
	sendBuf = 64 << 10
)

func (cfg *Config) fillDefaults() {
	if cfg.NumSubflows == 0 {
		cfg.NumSubflows = 2
	}
	if cfg.Sub.Policy != nil {
		panic("mptcp: subflows must use the default single-path policy")
	}
}

// mapping is one DSS ledger entry: subflow stream range → DSN range.
type mapping struct {
	subSeq     packet.Seq // absolute subflow sequence of the first byte
	dsn        packet.Seq
	len        int
	reinjected bool
}

// Stats aggregates connection-level counters.
type Stats struct {
	Reinjections      uint64 // bytes reinjected onto another subflow
	ReinjectEvents    uint64
	DupDSNBytes       int64 // bytes received whose DSN range was already complete
	SchedulerSwitches uint64
	BufferStalls      uint64 // pump attempts blocked on the shared send buffer
}

// Conn is one endpoint of an MPTCP connection (sender and/or receiver).
type Conn struct {
	Loop *sim.Loop
	cfg  Config

	subs    []*tcp.Conn
	gates   []gate                // gate k is subflow k's way out
	out     func(*packet.Segment) // the host's transmit function; nil while released
	ledgers [][]mapping
	queued  []uint32 // bytes ever queued per subflow (stream offsets)

	// The hooks subflow i carries its DSS mappings through, bound once: a
	// subflow's Reopen clears them, and init sets them again.
	txHooks []func(seg *tcp.TxSeg, h *packet.TCPHeader)
	rxHooks []func(h *packet.TCPHeader)

	active    int
	dsnNxt    packet.Seq
	backlog   int64
	epoch     packet.Seq
	epochSeen bool

	// Receiver: connection-level reassembly over DSN space.
	dsnDelivered packet.Seq
	ranges       []packet.SeqRange

	pumpTimer    sim.Timer
	pumpFn       func()
	nextReinject sim.Time

	Stats Stats
	// DeliveredBytes is the connection-level in-order delivery counter.
	DeliveredBytes int64
}

// New constructs an MPTCP endpoint that transmits through out, the host's one
// transmit function: subflow k's segments reach it through gate k, bound once
// here as the subflow's Out. It allocates the endpoint's storage — the
// subflows, their gates, the per-subflow ledgers and hooks, the bound pump
// callback — and leaves every starting value to init, the path Reopen takes
// over the same storage.
func New(loop *sim.Loop, cfg Config, out func(*packet.Segment)) *Conn {
	cfg.fillDefaults()
	n := cfg.NumSubflows
	m := &Conn{Loop: loop, cfg: cfg, out: out, subs: make([]*tcp.Conn, n), gates: make([]gate, n),
		ledgers: make([][]mapping, n), queued: make([]uint32, n),
		txHooks: make([]func(*tcp.TxSeg, *packet.TCPHeader), n), rxHooks: make([]func(*packet.TCPHeader), n)}
	m.pumpFn = m.tick
	for i := range m.subs {
		g := &m.gates[i]
		g.send = func(s *packet.Segment) {
			if m.active != i {
				g.hold(s)
				return
			}
			m.out(s)
		}
		m.subs[i] = tcp.NewConn(loop, cfg.Sub, g.send)
		m.txHooks[i] = func(seg *tcp.TxSeg, h *packet.TCPHeader) {
			if dsn, ok := m.lookupDSN(i, seg.Seq); ok {
				h.MPDSSPresent = true
				h.DSN = dsn.Uint32()
			}
		}
		m.rxHooks[i] = func(h *packet.TCPHeader) {
			if h.MPDSSPresent {
				m.acceptDSN(packet.SeqOf(h.DSN), h.PayloadLen)
			}
		}
	}
	m.init()
	return m
}

// init puts the endpoint in its starting state over the storage it holds:
// New's, just allocated, or Reopen's, left by the life before, its subflows
// already (re)initialised and its gates emptied by Release. As tcp.Conn's
// init, it assigns the struct whole from a literal naming only what carries
// over, so every other field, one added later included, starts from its zero
// value.
func (m *Conn) init() {
	for i := range m.ledgers {
		m.ledgers[i] = m.ledgers[i][:0]
	}
	clear(m.queued)
	*m = Conn{Loop: m.Loop, cfg: m.cfg, subs: m.subs, gates: m.gates, out: m.out, ledgers: m.ledgers,
		queued: m.queued, txHooks: m.txHooks, rxHooks: m.rxHooks, ranges: m.ranges[:0], pumpFn: m.pumpFn}
	for i, sub := range m.subs {
		sub.TxSegmentHook, sub.RxDataHook = m.txHooks[i], m.rxHooks[i]
	}
}

// Release ends the endpoint's life: every subflow is released (tcp.Conn's
// Release), the scheduler tick is stopped, the gates drop what they held and
// the endpoint drops out. Stats and DeliveredBytes stay readable until Reopen,
// for which the endpoint keeps what it allocated.
func (m *Conn) Release() {
	for i, sub := range m.subs {
		sub.Release()
		m.gates[i].held = m.gates[i].held[:0]
	}
	m.pumpTimer.Stop()
	m.out = nil
}

// Reopen starts a released endpoint's next life over the storage Release
// left it, transmitting through out: each subflow is reopened onto its gate,
// then init runs as for New, so the result is what New would return for the
// same Config and out and differs only in address. It panics unless the
// endpoint was released (tcp.Conn's Reopen does, on the first subflow).
func (m *Conn) Reopen(out func(*packet.Segment)) {
	for i, sub := range m.subs {
		sub.Reopen(m.gates[i].send)
	}
	m.out = out
	m.init()
}

// Subflows exposes the per-TDN subflow connections (for wiring and tests).
func (m *Conn) Subflows() []*tcp.Conn { return m.subs }

// Active returns the subflow index tdm_schd currently schedules on.
func (m *Conn) Active() int { return m.active }

// Delivered returns the connection-level bytes delivered in order
// (DeliveredBytes).
func (m *Conn) Delivered() int64 { return m.DeliveredBytes }

// Backlog returns connection-level bytes not yet assigned to any subflow.
func (m *Conn) Backlog() int64 { return m.backlog }

// Listen puts every subflow into passive-open state (receiver role).
func (m *Conn) Listen() {
	for _, sub := range m.subs {
		sub.Listen()
	}
}

// Connect opens every subflow and queues bytes of application data
// (bytes < 0 streams indefinitely).
func (m *Conn) Connect(bytes int64) {
	m.backlog = bytes
	for _, sub := range m.subs {
		sub.Connect(0)
	}
	m.schedulePump()
}

// QueueBytes adds application data to the connection-level backlog.
func (m *Conn) QueueBytes(n int64) {
	if m.backlog >= 0 && n > 0 {
		m.backlog += n
	}
	m.pump()
	m.schedulePump()
}

// Notify implements the tdm_schd steering decision: the gate of the subflow
// pinned to the newly active TDN releases what it held, all new data goes to
// that subflow, and after reinjectDelay any data stranded on the other
// subflows is reinjected onto it. A stale or duplicate notification changes
// nothing, the gates included.
func (m *Conn) Notify(tdn int, epoch uint32) {
	if tdn < 0 || tdn >= len(m.subs) {
		return
	}
	// Stale/duplicate epochs are discarded with serial-number arithmetic
	// (RFC 1982), the same gate as tcp.Conn.Notify, so it survives the
	// epoch counter wrapping past MaxUint32. Epoch 0 bypasses the gate
	// (tests and direct drivers; the network's counter skips it);
	// epochSeen distinguishes "no epoch yet" from real epochs near the wrap.
	e := packet.SeqOf(epoch)
	if epoch != 0 {
		if m.epochSeen && e.LEQ(m.epoch) {
			return
		}
		m.epochSeen = true
	}
	m.epoch = e
	m.gates[tdn].flush(m.out)
	if tdn == m.active {
		return
	}
	m.active = tdn
	m.Stats.SchedulerSwitches++
	m.pump()
}

// gate holds a subflow's outgoing segments at the host while the subflow is
// not the scheduler's active one.
type gate struct {
	send func(*packet.Segment) // bound once, by New: the subflow's Out
	// held are the segments waiting for the subflow's TDN, copied into value
	// slots that the gate keeps from one day to the next, each with its SACK
	// storage.
	held []packet.Segment
}

// A gate makes gateSlots slots at first and doubles them when a day holds
// more (the most seen in one day is 11); each slot is made with
// gateSACKBlocks SACK blocks, the most a segment carries.
const (
	gateSlots      = 8
	gateSACKBlocks = 4
)

// hold copies s into the gate's next slot. The connection reuses the
// segment's storage after its Out returns, so a held segment must be a deep
// copy: into the slot, over the SACK array the slot already has.
func (g *gate) hold(s *packet.Segment) {
	n := len(g.held)
	if n == cap(g.held) {
		g.grow()
	}
	g.held = g.held[:n+1]
	h := &g.held[n]
	sack := h.TCP.SACK[:0]
	*h = *s
	h.TCP.SACK = append(sack, s.TCP.SACK...)
}

// grow doubles the gate's slots (to gateSlots at first). The new slots get
// their SACK storage at once, carved from one block, so that a slot, once
// made, never allocates.
func (g *gate) grow() {
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

// flush sends what the gate held through out. Sending serializes a segment at
// once, so the slots are free for the next day as soon as the loop is done.
func (g *gate) flush(out func(*packet.Segment)) {
	for i := range g.held {
		out(&g.held[i])
	}
	g.held = g.held[:0]
}

// schedulePump arms the periodic scheduler tick. The tick callback is bound
// once, by New, so steady-state rearming does not allocate.
func (m *Conn) schedulePump() {
	if m.pumpTimer.Active() {
		return
	}
	m.pumpTimer = m.Loop.After(pumpInterval, m.pumpFn)
}

// tick is the scheduler's periodic pump; it re-arms while there is work.
func (m *Conn) tick() {
	m.pump()
	if m.backlog != 0 || m.anyOutstanding() {
		m.schedulePump()
	}
}

func (m *Conn) anyOutstanding() bool {
	for i := range m.subs {
		if len(m.ledgers[i]) > 0 {
			return true
		}
	}
	return false
}

// Outstanding returns connection-level bytes assigned to subflows but not
// yet acknowledged at the subflow level (send-buffer occupancy).
func (m *Conn) Outstanding() int64 {
	var total int64
	for i, sub := range m.subs {
		una := sub.SndUna()
		for _, e := range m.ledgers[i] {
			if e.reinjected {
				// The DSN liability moved to the reinjected copy; counting
				// both would wedge the buffer until the stranded original's
				// subflow ACKs return (real MPTCP frees on DATA_ACK).
				continue
			}
			end := e.subSeq.Add(e.len)
			if end.LEQ(una) {
				continue
			}
			rem := int64(end.Diff(una))
			if rem > int64(e.len) {
				rem = int64(e.len)
			}
			total += rem
		}
	}
	return total
}

// pump tops up the active subflow's send queue from the connection-level
// backlog, one chunk at a time, until the subflow stops draining
// (cwnd-limited), the shared send buffer fills (the §2.2 stall), or the
// backlog empties.
func (m *Conn) pump() {
	m.prune()
	sub := m.subs[m.active]
	if !sub.Established() {
		return
	}
	sub.KickRecovery()
	mss := sub.Config().MSS
	for m.backlog != 0 && sub.Backlog() == 0 {
		if m.Outstanding() >= sendBuf {
			// Flow-control stall (§2.2): the shared send buffer is full of
			// data unacknowledged on a (likely inactive) subflow. Reinject
			// it onto the active subflow to resume, rate-limited.
			m.Stats.BufferStalls++
			if m.Loop.Now() >= m.nextReinject {
				m.nextReinject = m.Loop.Now().Add(reinjectDelay)
				m.reinject(m.active)
			}
			return
		}
		chunk := int64(chunkSegs * mss)
		if m.backlog > 0 && chunk > m.backlog {
			chunk = m.backlog
		}
		m.assign(m.active, m.dsnNxt, int(chunk))
		m.dsnNxt = m.dsnNxt.Add(int(chunk))
		if m.backlog > 0 {
			m.backlog -= chunk
		}
	}
}

// assign queues length bytes carrying DSN range [dsn, dsn+length) on
// subflow i and records the mapping.
func (m *Conn) assign(i int, dsn packet.Seq, length int) {
	sub := m.subs[i]
	m.ledgers[i] = append(m.ledgers[i], mapping{
		subSeq: sub.AbsSeq(m.queued[i]),
		dsn:    dsn,
		len:    length,
	})
	m.queued[i] += uint32(length)
	sub.QueueBytes(int64(length))
}

// prune drops ledger entries fully acknowledged at the subflow level.
func (m *Conn) prune() {
	for i, sub := range m.subs {
		led := m.ledgers[i]
		k := 0
		for k < len(led) && led[k].subSeq.Add(led[k].len).LEQ(sub.SndUna()) {
			k++
		}
		if k > 0 {
			m.ledgers[i] = append(led[:0], led[k:]...)
		}
	}
}

// lookupDSN maps an absolute subflow sequence to its DSN.
func (m *Conn) lookupDSN(i int, seq packet.Seq) (packet.Seq, bool) {
	for _, e := range m.ledgers[i] {
		if off := uint32(seq.Diff(e.subSeq)); off < uint32(e.len) {
			return e.dsn.Add(int(off)), true
		}
	}
	return packet.Seq{}, false
}

// reinject copies data stranded on inactive subflows onto subflow target:
// every ledger entry not yet acknowledged at the subflow level is re-queued
// with the same DSN range (MPTCP's connection-level retransmission, §2.2).
func (m *Conn) reinject(target int) {
	m.prune()
	sub := m.subs[target]
	if !sub.Established() {
		return
	}
	moved := 0
	for i := range m.subs {
		if i == target {
			continue
		}
		una := m.subs[i].SndUna()
		for k := range m.ledgers[i] {
			e := &m.ledgers[i][k]
			if e.reinjected {
				continue
			}
			// Unacked portion of the entry.
			start := una
			if e.subSeq.GT(una) {
				start = e.subSeq
			}
			rem := int(e.subSeq.Add(e.len).Diff(start))
			if rem <= 0 {
				continue
			}
			dsn := e.dsn.Add(int(start.Diff(e.subSeq)))
			e.reinjected = true
			m.assign(target, dsn, rem)
			moved += rem
		}
	}
	if moved > 0 {
		m.Stats.Reinjections += uint64(moved)
		m.Stats.ReinjectEvents++
	}
}

// acceptDSN folds a received DSN range into connection-level reassembly.
func (m *Conn) acceptDSN(dsn packet.Seq, length int) {
	if length <= 0 {
		return
	}
	start, end := dsn, dsn.Add(length)
	if end.LEQ(m.dsnDelivered) {
		m.Stats.DupDSNBytes += int64(length)
		return
	}
	if start.LT(m.dsnDelivered) {
		m.Stats.DupDSNBytes += int64(m.dsnDelivered.Diff(start))
		start = m.dsnDelivered
	}
	if start == m.dsnDelivered {
		m.advance(end)
		return
	}
	m.insertRange(start, end)
}

func (m *Conn) advance(end packet.Seq) {
	prev := m.dsnDelivered
	m.dsnDelivered = end
	for len(m.ranges) > 0 && m.ranges[0].Start.LEQ(m.dsnDelivered) {
		if m.ranges[0].End.GT(m.dsnDelivered) {
			m.dsnDelivered = m.ranges[0].End
		}
		// Shift down rather than reslice forward, which would give up a
		// capacity slot per pop (as tcp's advanceDelivery does).
		m.ranges = m.ranges[:copy(m.ranges, m.ranges[1:])]
	}
	m.DeliveredBytes += int64(m.dsnDelivered.Diff(prev))
}

func (m *Conn) insertRange(start, end packet.Seq) {
	i := 0
	for i < len(m.ranges) && m.ranges[i].Start.LT(start) {
		i++
	}
	m.ranges = append(m.ranges, packet.SeqRange{})
	copy(m.ranges[i+1:], m.ranges[i:])
	m.ranges[i] = packet.SeqRange{Start: start, End: end}
	if i > 0 && m.ranges[i-1].End.GEQ(m.ranges[i].Start) {
		if m.ranges[i].End.GT(m.ranges[i-1].End) {
			m.ranges[i-1].End = m.ranges[i].End
		}
		m.ranges = append(m.ranges[:i], m.ranges[i+1:]...)
		i--
	}
	for i+1 < len(m.ranges) && m.ranges[i].End.GEQ(m.ranges[i+1].Start) {
		if m.ranges[i+1].End.GT(m.ranges[i].End) {
			m.ranges[i].End = m.ranges[i+1].End
		}
		m.ranges = append(m.ranges[:i+1], m.ranges[i+2:]...)
	}
}
