// Package mptcp models Multipath TCP the way the paper's §2.2 baseline uses
// it: one subflow pinned to each time-division network, a tdm_schd scheduler
// that steers all new data onto the subflow whose network is currently
// active, a two-level sequence space (per-subflow sequence numbers plus a
// connection-level data sequence number carried in a per-segment DSS
// mapping), and connection-level reinjection of segments stranded on an
// inactive subflow.
//
// Each subflow is a complete tcp.Conn with its own congestion control; the
// connection-level machinery lives here. The pathology the paper measures —
// flow-control stalls because ACKs for data sent on the optical subflow
// cannot return until the optical network is next active, forcing reinjection
// on the packet subflow — emerges from exactly this structure.
package mptcp

import (
	"fmt"

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
	ledgers [][]mapping
	queued  []uint32 // bytes ever queued per subflow (stream offsets)

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
	// OnDelivered observes connection-level progress (the MPTCP curve in
	// the paper's sequence graphs).
	OnDelivered func(now sim.Time, total int64)
}

// New constructs an MPTCP endpoint. outs supplies one transmit function per
// subflow (each typically gated at the host so the subflow sends only while
// its TDN is active).
func New(loop *sim.Loop, cfg Config, outs []func(*packet.Segment)) *Conn {
	cfg.fillDefaults()
	if len(outs) != cfg.NumSubflows {
		panic(fmt.Sprintf("mptcp: %d outs for %d subflows", len(outs), cfg.NumSubflows))
	}
	m := &Conn{Loop: loop, cfg: cfg}
	for i := 0; i < cfg.NumSubflows; i++ {
		i := i
		sub := tcp.NewConn(loop, cfg.Sub, outs[i])
		sub.TxSegmentHook = func(seg *tcp.TxSeg, h *packet.TCPHeader) {
			if dsn, ok := m.lookupDSN(i, seg.Seq); ok {
				h.MPDSSPresent = true
				h.DSN = dsn.Uint32()
			}
		}
		sub.RxDataHook = func(h *packet.TCPHeader) {
			if h.MPDSSPresent {
				m.acceptDSN(packet.SeqOf(h.DSN), h.PayloadLen)
			}
		}
		m.subs = append(m.subs, sub)
		m.ledgers = append(m.ledgers, nil)
		m.queued = append(m.queued, 0)
	}
	return m
}

// Subflows exposes the per-TDN subflow connections (for wiring and tests).
func (m *Conn) Subflows() []*tcp.Conn { return m.subs }

// Active returns the subflow index tdm_schd currently schedules on.
func (m *Conn) Active() int { return m.active }

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

// Notify implements the tdm_schd steering decision: all new data goes to
// the subflow pinned to the newly active TDN, and after reinjectDelay any
// data stranded on the other subflows is reinjected onto this one.
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
	if tdn == m.active {
		return
	}
	m.active = tdn
	m.Stats.SchedulerSwitches++
	m.pump()
}

// schedulePump arms the periodic scheduler tick. The tick callback is bound
// once (lazily) so steady-state rearming does not allocate.
func (m *Conn) schedulePump() {
	if m.pumpTimer.Active() {
		return
	}
	if m.pumpFn == nil {
		m.pumpFn = func() {
			m.pump()
			if m.backlog != 0 || m.anyOutstanding() {
				m.schedulePump()
			}
		}
	}
	m.pumpTimer = m.Loop.After(pumpInterval, m.pumpFn)
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
	if m.OnDelivered != nil {
		m.OnDelivered(m.Loop.Now(), m.DeliveredBytes)
	}
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
