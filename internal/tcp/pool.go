package tcp

// Pool recycles the storage behind its connections' retransmission queues:
// TxSeg entries and the queues' backing arrays are drawn from it and go back
// to it (on cumulative ACK, and on Release), so what a connection holds
// follows its flight size and what a run holds follows its open connections.
// Everything else a connection knows lives in the Conn and its PathStates.
//
// The zero value is ready to use. Connections constructed with the same
// Config.Pool share it (the experiments harness keeps one per run); NewConn
// falls back to a private pool so standalone use needs no wiring.
type Pool struct {
	live int // connections attached and not yet released

	// Retired TxSeg entries, the block fresh ones are carved from, and the
	// backing arrays of released queues.
	segFree   []*TxSeg
	segChunk  []TxSeg
	queueFree [][]*TxSeg
}

// LiveConns reports the connections attached to the pool and not yet
// released.
func (p *Pool) LiveConns() int { return p.live }

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

// getQueue returns an empty backing array for a retransmission queue.
func (p *Pool) getQueue() []*TxSeg {
	if n := len(p.queueFree); n > 0 {
		q := p.queueFree[n-1]
		p.queueFree[n-1] = nil
		p.queueFree = p.queueFree[:n-1]
		return q
	}
	return make([]*TxSeg, 0, 64)
}

// putQueue recycles a released queue's backing array.
func (p *Pool) putQueue(q []*TxSeg) {
	q = q[:cap(q)]
	clear(q)
	p.queueFree = append(p.queueFree, q[:0])
}
