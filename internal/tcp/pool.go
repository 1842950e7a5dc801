package tcp

// Pool recycles the entries of its connections' retransmission queues: a
// TxSeg is drawn from it per transmitted segment and goes back to it on
// cumulative ACK and on Release, so what a run holds in entries follows its
// flight size. A queue's backing array is not the pool's: it stays with its
// connection, cleared at Release and reused at Reopen, like everything else
// a connection knows (the Conn and its PathStates).
//
// The zero value is ready to use. Connections constructed with the same
// Config.Pool share it (the experiments harness keeps one per run); NewConn
// falls back to a private pool so standalone use needs no wiring.
type Pool struct {
	live int // connections attached and not yet released

	// Retired TxSeg entries and the block fresh ones are carved from.
	segFree  []*TxSeg
	segChunk []TxSeg
}

// LiveConns reports the connections attached to the pool and not yet
// released.
func (p *Pool) LiveConns() int { return p.live }

// Reset hands the pool to a new run: the connections of the run before are
// forgotten (LiveConns restarts at 0) and the entries they returned stay
// pooled. What those connections still held goes with them; only a run that
// is done with every one of them may call it.
func (p *Pool) Reset() { p.live = 0 }

// getTxSeg returns a zeroed retransmission-queue entry, recycling a retired
// one when available. Fresh entries are carved from chunk-allocated blocks so
// the queues' working set sits in a handful of contiguous arrays instead of
// one heap object per in-flight segment.
//
// Hot path: runs once per transmitted segment.
func (p *Pool) getTxSeg() *TxSeg {
	if n := len(p.segFree); n > 0 {
		seg := p.segFree[n-1]
		p.segFree = p.segFree[:n-1]
		*seg = TxSeg{}
		return seg
	}
	if len(p.segChunk) == 0 {
		p.refillSegChunk()
	}
	seg := &p.segChunk[0]
	p.segChunk = p.segChunk[1:]
	return seg
}

// refillSegChunk restocks the TxSeg carving block, 64 entries at a time.
// getTxSeg's amortized cold path, kept out of line so getTxSeg's own body
// stays small; once the free list covers the pool's flight size it never
// runs, which TestSteadyStateDoesNotAllocate holds on both fabrics.
//
//go:noinline
func (p *Pool) refillSegChunk() {
	p.segChunk = make([]TxSeg, 64)
}

// putTxSeg recycles a retransmission-queue entry no queue references any
// longer. Callers must not touch the entry afterwards.
//
// Hot path: runs once per cumulatively acked segment.
func (p *Pool) putTxSeg(seg *TxSeg) { p.segFree = append(p.segFree, seg) }
