package tcp

import (
	"github.com/rdcn-net/tdtcp/internal/cc"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// Slab is the struct-of-arrays backing store for the hot per-connection and
// per-path state of the data path: the RTT estimators, the congestion-state
// machine, the pipe counters, and the sequence/ACK cursors. Instead of each
// connection scattering this state across pointer-rich heap objects, every
// field lives in a dense column indexed by a small integer id, so an
// ACK-processing pass over many interleaved connections touches a handful of
// contiguous cache lines per column rather than one ~200-byte object per
// connection (the Laminar observation: simulator throughput is bounded by
// cache behaviour, not instruction count).
//
// Two id spaces share the slab:
//
//	conn id   -> one row per connection (cursors, notify epoch)
//	path id   -> one row per path state; a connection's NumStates rows are
//	             allocated contiguously so TDTCP's per-TDN states share lines
//
// Connections constructed with Config.Slab share one slab (one experiment =
// one slab); NewConn falls back to a private slab so standalone use and
// existing tests need no wiring. Columns grow by doubling; ids are stable for
// the life of the connection and recycled through free lists on Release.
//
// The slab is also the pool behind its connections' retransmission queues:
// TxSeg entries and the queues' backing arrays are drawn from it and go back
// to it (on cumulative ACK, and on Release), so what a connection holds
// follows its flight size and what a rack holds follows its open connections.
//
// Layout (per 64-byte cache line, 8-byte columns):
//
//	srtt:    | c0p0 c0p1 c1p0 c1p1 c2p0 c2p1 c3p0 c3p1 |  8 paths/line
//	samples: | c0p0 .. c15p1                            | 16 paths/line (int32)
//	ca:      | c0p0 .. c63p1                            | 64 paths/line (uint8)
type Slab struct {
	// Per-path columns, indexed by PathState.idx.
	srtt    []sim.Dur
	rttvar  []sim.Dur
	rto     []sim.Dur
	samples []int32

	ca            []CAState
	recoveryPoint []uint32
	dupAcks       []int32

	packetsOut []int32
	sackedOut  []int32
	lostOut    []int32
	retransOut []int32

	// Per-connection columns, indexed by Conn.idx.
	sndUna      []uint32
	sndNxt      []uint32
	rcvNxt      []uint32
	notifyEpoch []uint32

	// Free lists: recycled conn rows, and recycled path-row runs keyed by
	// run length (connections allocate NumStates contiguous rows at once).
	connFree []int32
	pathFree map[int][]int32

	// Retransmission-queue storage: retired TxSeg entries, the block fresh
	// ones are carved from, and the backing arrays of released queues.
	segFree   []*TxSeg
	segChunk  []TxSeg
	queueFree [][]*TxSeg
}

// NewSlab returns a slab pre-sized for the given number of connections and
// total path states. Capacities are hints: the slab grows as needed.
func NewSlab(conns, paths int) *Slab {
	s := &Slab{}
	s.growConns(conns)
	s.growPaths(paths)
	return s
}

func (s *Slab) growConns(n int) {
	if n <= 0 {
		n = 8
	}
	s.sndUna = append(s.sndUna, make([]uint32, 0, n)...)
	s.sndNxt = append(s.sndNxt, make([]uint32, 0, n)...)
	s.rcvNxt = append(s.rcvNxt, make([]uint32, 0, n)...)
	s.notifyEpoch = append(s.notifyEpoch, make([]uint32, 0, n)...)
}

func (s *Slab) growPaths(n int) {
	if n <= 0 {
		n = 16
	}
	s.srtt = append(s.srtt, make([]sim.Dur, 0, n)...)
	s.rttvar = append(s.rttvar, make([]sim.Dur, 0, n)...)
	s.rto = append(s.rto, make([]sim.Dur, 0, n)...)
	s.samples = append(s.samples, make([]int32, 0, n)...)
	s.ca = append(s.ca, make([]CAState, 0, n)...)
	s.recoveryPoint = append(s.recoveryPoint, make([]uint32, 0, n)...)
	s.dupAcks = append(s.dupAcks, make([]int32, 0, n)...)
	s.packetsOut = append(s.packetsOut, make([]int32, 0, n)...)
	s.sackedOut = append(s.sackedOut, make([]int32, 0, n)...)
	s.lostOut = append(s.lostOut, make([]int32, 0, n)...)
	s.retransOut = append(s.retransOut, make([]int32, 0, n)...)
}

// allocConn returns a zeroed per-connection row id.
func (s *Slab) allocConn() int32 {
	if n := len(s.connFree); n > 0 {
		idx := s.connFree[n-1]
		s.connFree = s.connFree[:n-1]
		s.sndUna[idx] = 0
		s.sndNxt[idx] = 0
		s.rcvNxt[idx] = 0
		s.notifyEpoch[idx] = 0
		return idx
	}
	idx := int32(len(s.sndUna))
	s.sndUna = append(s.sndUna, 0)
	s.sndNxt = append(s.sndNxt, 0)
	s.rcvNxt = append(s.rcvNxt, 0)
	s.notifyEpoch = append(s.notifyEpoch, 0)
	return idx
}

// allocPaths returns the base id of n zeroed, contiguous per-path rows.
func (s *Slab) allocPaths(n int) int32 {
	if runs := s.pathFree[n]; len(runs) > 0 {
		base := runs[len(runs)-1]
		s.pathFree[n] = runs[:len(runs)-1]
		for i := base; i < base+int32(n); i++ {
			s.srtt[i], s.rttvar[i], s.rto[i], s.samples[i] = 0, 0, 0, 0
			s.ca[i], s.recoveryPoint[i], s.dupAcks[i] = CAOpen, 0, 0
			s.packetsOut[i], s.sackedOut[i], s.lostOut[i], s.retransOut[i] = 0, 0, 0, 0
		}
		return base
	}
	base := int32(len(s.srtt))
	for i := 0; i < n; i++ {
		s.srtt = append(s.srtt, 0)
		s.rttvar = append(s.rttvar, 0)
		s.rto = append(s.rto, 0)
		s.samples = append(s.samples, 0)
		s.ca = append(s.ca, CAOpen)
		s.recoveryPoint = append(s.recoveryPoint, 0)
		s.dupAcks = append(s.dupAcks, 0)
		s.packetsOut = append(s.packetsOut, 0)
		s.sackedOut = append(s.sackedOut, 0)
		s.lostOut = append(s.lostOut, 0)
		s.retransOut = append(s.retransOut, 0)
	}
	return base
}

// NewPathState returns a standalone PathState backed by a private slab row,
// for tests and direct drivers; connections allocate theirs through NewConn.
func NewPathState(alg cc.Algorithm) *PathState {
	s := NewSlab(0, 1)
	return &PathState{CC: alg, slab: s, idx: s.allocPaths(1)}
}

// LiveConns reports the per-connection rows in use: allocated and not yet
// released.
func (s *Slab) LiveConns() int { return len(s.sndUna) - len(s.connFree) }

// releaseConn recycles a per-connection row.
func (s *Slab) releaseConn(idx int32) { s.connFree = append(s.connFree, idx) }

// releasePaths recycles a contiguous run of per-path rows.
func (s *Slab) releasePaths(base int32, n int) {
	if s.pathFree == nil {
		s.pathFree = make(map[int][]int32)
	}
	s.pathFree[n] = append(s.pathFree[n], base)
}

// getTxSeg returns a zeroed retransmission-queue entry, recycling a retired
// one when available. Fresh entries are carved from chunk-allocated blocks so
// the queues' working set sits in a handful of contiguous arrays instead of
// one heap object per in-flight segment.
//
//lint:hotpath runs once per transmitted segment
func (s *Slab) getTxSeg() *TxSeg {
	if n := len(s.segFree); n > 0 {
		seg := s.segFree[n-1]
		s.segFree = s.segFree[:n-1]
		*seg = TxSeg{}
		return seg
	}
	if len(s.segChunk) == 0 {
		s.refillSegChunk()
	}
	seg := &s.segChunk[0]
	s.segChunk = s.segChunk[1:]
	return seg
}

// refillSegChunk restocks the TxSeg carving block, 64 entries at a time.
// getTxSeg's amortized cold path, kept in its own non-inlined function so
// the //lint:hotpath contract on getTxSeg holds (allocations are charged to
// the callee); once the free list covers the slab's flight size, it never
// runs.
//
//go:noinline
func (s *Slab) refillSegChunk() {
	s.segChunk = make([]TxSeg, 64)
}

// putTxSeg recycles a retransmission-queue entry no queue references any
// longer. Callers must not touch the entry afterwards.
//
//lint:hotpath runs once per cumulatively acked segment
func (s *Slab) putTxSeg(seg *TxSeg) { s.segFree = append(s.segFree, seg) }

// getQueue returns an empty backing array for a retransmission queue.
func (s *Slab) getQueue() []*TxSeg {
	if n := len(s.queueFree); n > 0 {
		q := s.queueFree[n-1]
		s.queueFree[n-1] = nil
		s.queueFree = s.queueFree[:n-1]
		return q
	}
	return make([]*TxSeg, 0, 64)
}

// putQueue recycles a released queue's backing array.
func (s *Slab) putQueue(q []*TxSeg) {
	q = q[:cap(q)]
	clear(q)
	s.queueFree = append(s.queueFree, q[:0])
}

// Per-path column accessors. These are the only way PathState's hot fields
// are read or written; each compiles to a base+index load with no pointer
// chase through the PathState itself.

// SRTT returns the smoothed RTT estimate (RFC 6298).
//
//lint:hotpath read on every RTT sample and timer arm
func (ps *PathState) SRTT() sim.Dur { return ps.slab.srtt[ps.idx] }

// RTTVar returns the RTT variance estimate.
//
//lint:hotpath read on every RTT sample and timer arm
func (ps *PathState) RTTVar() sim.Dur { return ps.slab.rttvar[ps.idx] }

// RTO returns the current retransmission timeout.
//
//lint:hotpath read on every timer arm
func (ps *PathState) RTO() sim.Dur { return ps.slab.rto[ps.idx] }

// Samples returns the number of RTT samples incorporated.
func (ps *PathState) Samples() int { return int(ps.slab.samples[ps.idx]) }

// CA returns the congestion-avoidance machine state.
//
//lint:hotpath read on every ACK
func (ps *PathState) CA() CAState { return ps.slab.ca[ps.idx] }

// SetCA sets the congestion-avoidance machine state.
func (ps *PathState) SetCA(v CAState) { ps.slab.ca[ps.idx] = v }

// RecoveryPoint returns snd_nxt at the last recovery/loss entry.
func (ps *PathState) RecoveryPoint() uint32 { return ps.slab.recoveryPoint[ps.idx] }

// SetRecoveryPoint records snd_nxt at a recovery/loss entry.
func (ps *PathState) SetRecoveryPoint(v uint32) { ps.slab.recoveryPoint[ps.idx] = v }

// DupAcks returns the duplicate-ACK count.
//
//lint:hotpath read on every ACK
func (ps *PathState) DupAcks() int { return int(ps.slab.dupAcks[ps.idx]) }

// SetDupAcks sets the duplicate-ACK count.
func (ps *PathState) SetDupAcks(v int) { ps.slab.dupAcks[ps.idx] = int32(v) }

// AddDupAcks adjusts the duplicate-ACK count by d.
//
//lint:hotpath written on every duplicate ACK
func (ps *PathState) AddDupAcks(d int) { ps.slab.dupAcks[ps.idx] += int32(d) }

// PacketsOut returns the count of unacked segments tagged with this state.
//
//lint:hotpath read on every ACK and send attempt
func (ps *PathState) PacketsOut() int { return int(ps.slab.packetsOut[ps.idx]) }

// SackedOut returns how many outstanding segments are SACKed.
func (ps *PathState) SackedOut() int { return int(ps.slab.sackedOut[ps.idx]) }

// LostOut returns how many outstanding segments are marked lost.
func (ps *PathState) LostOut() int { return int(ps.slab.lostOut[ps.idx]) }

// RetransOut returns how many retransmitted segments are still outstanding.
func (ps *PathState) RetransOut() int { return int(ps.slab.retransOut[ps.idx]) }

// SetPacketsOut overwrites the unacked-segment count (tests only).
func (ps *PathState) SetPacketsOut(v int) { ps.slab.packetsOut[ps.idx] = int32(v) }

// SetSackedOut overwrites the SACKed-segment count (tests only).
func (ps *PathState) SetSackedOut(v int) { ps.slab.sackedOut[ps.idx] = int32(v) }

// SetLostOut overwrites the lost-segment count (tests only).
func (ps *PathState) SetLostOut(v int) { ps.slab.lostOut[ps.idx] = int32(v) }

// SetRetransOut overwrites the retransmitted-outstanding count (tests only).
func (ps *PathState) SetRetransOut(v int) { ps.slab.retransOut[ps.idx] = int32(v) }

// AddPacketsOut adjusts the unacked-segment count by d.
//
//lint:hotpath written on every send and cumulative ACK
func (ps *PathState) AddPacketsOut(d int) { ps.slab.packetsOut[ps.idx] += int32(d) }

// AddSackedOut adjusts the SACKed-segment count by d.
//
//lint:hotpath written on every SACK mark
func (ps *PathState) AddSackedOut(d int) { ps.slab.sackedOut[ps.idx] += int32(d) }

// AddLostOut adjusts the lost-segment count by d.
//
//lint:hotpath written on every loss mark and repair
func (ps *PathState) AddLostOut(d int) { ps.slab.lostOut[ps.idx] += int32(d) }

// AddRetransOut adjusts the retransmitted-outstanding count by d.
//
//lint:hotpath written on every retransmission and its ACK
func (ps *PathState) AddRetransOut(d int) { ps.slab.retransOut[ps.idx] += int32(d) }

// Per-connection column accessors: the sequence/ACK cursors of the unified
// sequence space and the TDN-notification epoch.

//lint:hotpath read on every ACK
func (c *Conn) sndUna() uint32 { return c.slab.sndUna[c.idx] }

//lint:hotpath read on every send
func (c *Conn) sndNxt() uint32 { return c.slab.sndNxt[c.idx] }

//lint:hotpath read on every received data segment
func (c *Conn) rcvNxt() uint32 { return c.slab.rcvNxt[c.idx] }

func (c *Conn) setSndUna(v uint32) { c.slab.sndUna[c.idx] = v }
func (c *Conn) setSndNxt(v uint32) { c.slab.sndNxt[c.idx] = v }
func (c *Conn) setRcvNxt(v uint32) { c.slab.rcvNxt[c.idx] = v }

func (c *Conn) notifyEpoch() uint32     { return c.slab.notifyEpoch[c.idx] }
func (c *Conn) setNotifyEpoch(v uint32) { c.slab.notifyEpoch[c.idx] = v }
