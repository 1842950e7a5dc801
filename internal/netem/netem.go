// Package netem provides the network-emulation building blocks the RDCN
// model is assembled from: ToR virtual output queues (VOQs) with drop-tail
// and ECN-marking behaviour, and one serializing link, Pipe, that is both the
// host NIC and the ToR uplink draining a VOQ onto whichever time-division
// network is currently active.
//
// It plays the role of Etalon's Click pipeline in the paper's testbed.
package netem

import (
	"encoding/binary"
	"fmt"

	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// Frame is a serialized packet in flight through the emulated network.
// Wire holds the serialized headers; Len is the full on-the-wire length
// (headers plus virtual payload) that links and queues charge for.
type Frame struct {
	Wire   []byte
	Len    int
	SentAt sim.Time
}

// BufPool is a loop-owned free list of frame wire buffers. It is NOT a
// sync.Pool: sync.Pool reuse depends on GC timing, which would make buffer
// identity (and any latent aliasing bug) irreproducible across runs. A plain
// LIFO slice owned by the single-threaded event loop recycles buffers in a
// schedule determined entirely by the event order, so two runs with the same
// seed recycle identically.
//
// A nil *BufPool is valid and degrades to plain allocation, so pooling can
// be switched off wholesale (e.g. for golden-trace A/B tests) without
// branching at every call site.
type BufPool struct {
	free  [][]byte
	block []byte // carve-out backing for fresh buffers, bufClass at a time

	gets, puts, misses uint64

	// The storage of the pipes that drew on the pool, handed back by their
	// Release for the pipes of the next network: FIFO arrays, cleared, and
	// propagation cells, chained through their link field.
	fifos [][]Frame
	cells *pipeDelivery
}

// bufClass is the uniform minimum capacity of pooled buffers. Header lengths
// vary by a few tens of bytes (a SACK-bearing ACK outgrows a data header), and
// a pool holding mixed sizes keeps discarding the small ones on lookup — an
// allocation-churn treadmill where ACK and data buffers evict each other
// forever. Rounding every request up to one class makes any recycled buffer
// satisfy any request, so a warmed-up pool never allocates again.
const bufClass = 128

// Get returns a zero-length buffer with capacity at least capHint, reusing a
// recycled buffer when one fits. On a nil pool it simply allocates.
//
// Hot path: runs once per serialized frame.
func (p *BufPool) Get(capHint int) []byte {
	if capHint < bufClass {
		capHint = bufClass
	}
	if p == nil {
		return allocBuf(capHint)
	}
	p.gets++
	for n := len(p.free); n > 0; n = len(p.free) {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		if cap(b) >= capHint {
			return b[:0]
		}
		// Undersized stragglers (jumbo option stacks past bufClass, rare)
		// are discarded rather than left to clog the free list.
	}
	p.misses++
	if capHint == bufClass {
		// Carve class-sized buffers from a shared block: the pool's working
		// set ramps up in a few contiguous allocations (cache-friendly, cheap
		// on the GC) instead of one object per buffer.
		if len(p.block) < bufClass {
			p.refillBlock()
		}
		b := p.block[:0:bufClass]
		p.block = p.block[bufClass:]
		return b
	}
	return allocBuf(capHint)
}

// refillBlock restocks the carving block, 64 buffer classes at a time. This
// is Get's amortized cold path, kept out of line so Get's own body stays
// small; a steady-state (warmed-up) pool never comes here, which
// TestSteadyStateDoesNotAllocate holds on both fabrics.
//
//go:noinline
func (p *BufPool) refillBlock() {
	p.block = make([]byte, 64*bufClass)
}

// allocBuf is the pool-miss fallback for nil pools and oversized requests
// (jumbo option stacks past bufClass, rare). Out-of-line for the same
// reason as refillBlock.
//
//go:noinline
func allocBuf(capHint int) []byte {
	return make([]byte, 0, capHint)
}

// Put recycles a buffer for a later Get. Nil pools and zero-capacity buffers
// are ignored, so Put is safe to call unconditionally on any frame's wire.
//
// Hot path: runs once per released frame.
func (p *BufPool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	p.puts++
	p.free = append(p.free, b)
}

// Stats reports cumulative gets, puts and misses (Gets that had to allocate).
func (p *BufPool) Stats() (gets, puts, misses uint64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.gets, p.puts, p.misses
}

// NewFrameIn serializes seg into a frame stamped at the current time, drawing
// the wire buffer from pool (which may be nil for plain allocation).
func NewFrameIn(loop *sim.Loop, pool *BufPool, seg *packet.Segment) Frame {
	return Frame{
		Wire:   seg.Serialize(pool.Get(seg.HeaderLen())),
		Len:    seg.WireLen(),
		SentAt: loop.Now(),
	}
}

// Release returns the frame's wire buffer to pool and clears the alias so a
// stale Frame copy cannot touch the recycled bytes. Nil-pool safe.
//
// Hot path: runs once per consumed frame.
func (f *Frame) Release(pool *BufPool) {
	pool.Put(f.Wire)
	f.Wire = nil
}

// MarkCE sets the ECN CE codepoint on the frame's IP header in place,
// updating the header checksum incrementally (RFC 1624) the way a real
// switch would.
func (f Frame) MarkCE() {
	b := f.Wire
	if len(b) < 20 {
		return
	}
	old := binary.BigEndian.Uint16(b[0:2])
	b[1] |= packet.ECNCE
	new_ := binary.BigEndian.Uint16(b[0:2])
	if old == new_ {
		return
	}
	// RFC 1624 incremental update: HC' = ~(~HC + ~m + m').
	hc := binary.BigEndian.Uint16(b[10:12])
	sum := uint32(^hc) + uint32(^old) + uint32(new_)
	for sum > 0xFFFF {
		sum = (sum >> 16) + (sum & 0xFFFF)
	}
	binary.BigEndian.PutUint16(b[10:12], ^uint16(sum))
}

// Sink consumes frames that exit a network element.
type Sink func(Frame)

// FrameFate is a fault-injection verdict for one frame about to leave a
// Pipe: the frame may be dropped, have a byte corrupted in place (so the
// receiver's checksum validation discards it, as on a real NIC), and/or be
// delayed an extra Extra beyond the pipe's propagation delay (unequal extra
// delays reorder frames, since each delivery is scheduled independently).
type FrameFate struct {
	Drop    bool
	Corrupt bool
	Extra   sim.Dur
}

// CorruptWire flips bits of one wire byte in place, deterministically. The
// IP header checksum is left stale on purpose: that is exactly what a real
// bit error does, and the receiver's Parse rejects the frame.
func CorruptWire(b []byte) {
	if len(b) == 0 {
		return
	}
	b[len(b)/2] ^= 0xA5
}

// Path is the network a link is currently serving: its bottleneck rate and
// one-way propagation delay.
type Path struct {
	Rate  sim.Rate
	Delay sim.Dur
}

// Pipe is a serializing link: frames are serialized one at a time, each at
// the rate of the path it starts on, and delivered to Out that path's delay
// later. With Next nil it is a host NIC and its qdisc: an unbounded FIFO fed
// by Send, sent at Rate onto Delay; it never limits throughput in the
// paper's topology (hosts have fabric-rate NICs) but shapes bursts
// realistically. With Next set it is a ToR uplink draining a VOQ onto
// whichever time-division network is active; while the path is dark it
// idles until Kick is called.
type Pipe struct {
	Loop  *sim.Loop
	Rate  sim.Rate
	Delay sim.Dur
	Out   Sink

	// Next, when non-nil, is the pipe's source instead of its own FIFO: the
	// next frame and the path to send it on, or ok false when there is no
	// frame or the path is dark.
	Next func() (f Frame, path Path, ok bool)

	// Fault, when non-nil, is consulted once per frame when serialization
	// completes; the returned fate may drop, corrupt, or extra-delay the
	// frame (internal/fault installs this hook).
	Fault func(Frame) FrameFate

	// Pool, when non-nil, receives the wire buffers of frames the Fault
	// hook drops — the only point where a frame dies inside the pipe — and
	// of every frame the pipe still holds at Release. The pipe also takes
	// its FIFO array and its propagation cells from it, and gives them back
	// at Release. Nil is plain allocation.
	Pool *BufPool

	// Coalesce is ignored: every frame in the propagation-delay stage is one
	// loop event. It is set only under benchmark/ and goes with the
	// one-loop shim in internal/sim/shard.go (ROADMAP item 2).
	Coalesce bool

	q    []Frame
	head int
	busy bool

	// Serialization is a one-at-a-time state machine: cur is the frame on
	// the wire and curDelay the delay of the path it started on; source
	// (Next, or the FIFO's dequeue) and serializedFn are bound once, by the
	// first Kick. Propagation overlaps (several frames can be in the Delay
	// stage at once), so deliveries ride inflight cells, each with its own
	// callback bound exactly once. Two chains run through the cells, so
	// neither costs an allocation: free holds those not in flight, and cells
	// every cell the pipe has, since one in the propagation stage is
	// reachable otherwise only through its pending event, and Release must
	// find its frame.
	cur          Frame
	curDelay     sim.Dur
	source       func() (Frame, Path, bool)
	serializedFn func()
	free, cells  *pipeDelivery

	propagating int    // frames in the propagation-delay stage
	faultDrops  uint64 // frames killed by the Fault hook
}

// pipeDelivery carries one frame through the propagation-delay stage.
type pipeDelivery struct {
	p    *Pipe
	f    Frame
	fn   func()
	next *pipeDelivery // the next in its pipe's free chain
	link *pipeDelivery // the next in its pipe's chain of every cell, or in its pool's
}

// Send enqueues a frame on the pipe's own FIFO for transmission.
func (p *Pipe) Send(f Frame) {
	if len(p.q) == cap(p.q) {
		p.makeRoom()
	}
	p.q = append(p.q, f)
	p.Kick()
}

// makeRoom is Send's cold path, taken when the append would grow the FIFO's
// array: it moves the queued frames to the front of the array, or, when the
// pipe has no array yet, takes one from Pool. With neither, append grows the
// array, so an array the pipe grows is at most twice the most frames it
// queued at once.
func (p *Pipe) makeRoom() {
	if p.head > 0 {
		n := copy(p.q, p.q[p.head:])
		clear(p.q[n:])
		p.q, p.head = p.q[:n], 0
		return
	}
	if pool := p.Pool; cap(p.q) == 0 && pool != nil && len(pool.fifos) > 0 {
		n := len(pool.fifos) - 1
		p.q, pool.fifos[n], pool.fifos = pool.fifos[n], nil, pool.fifos[:n]
	}
}

// QueueLen reports the number of frames waiting in the pipe's own FIFO (not
// counting one being serialized).
func (p *Pipe) QueueLen() int { return len(p.q) - p.head }

// Kick starts serializing the next frame unless one is already on the wire.
// Send kicks by itself; a pipe with Next is kicked whenever its source may
// have a frame to give, e.g. at every enqueue and schedule transition.
func (p *Pipe) Kick() {
	if p.busy {
		return
	}
	if p.source == nil {
		p.source, p.serializedFn = p.Next, p.serialized
		if p.source == nil {
			p.source = p.dequeue
		}
	}
	f, path, ok := p.source()
	if !ok {
		return
	}
	p.busy = true
	p.cur, p.curDelay = f, path.Delay
	p.Loop.After(path.Rate.TransmitTime(f.Len), p.serializedFn)
}

// dequeue is the source of a pipe without Next: the head of its own FIFO,
// sent at Rate onto Delay.
func (p *Pipe) dequeue() (Frame, Path, bool) {
	if p.QueueLen() == 0 {
		return Frame{}, Path{}, false
	}
	f := p.q[p.head]
	p.q[p.head] = Frame{}
	if p.head++; p.head == len(p.q) {
		p.q, p.head = p.q[:0], 0
	}
	return f, Path{Rate: p.Rate, Delay: p.Delay}, true
}

// serialized finishes the frame currently on the wire: it consults the fault
// hook, schedules the propagation-delay delivery, and starts the next frame.
// Delivery is scheduled before the next Kick so event order (and therefore
// the trace) matches a frame-at-a-time reading of the pipeline.
func (p *Pipe) serialized() {
	f := p.cur
	p.cur = Frame{}
	p.busy = false
	delay := p.curDelay
	drop := false
	if p.Fault != nil {
		fate := p.Fault(f)
		drop = fate.Drop
		if !drop && fate.Corrupt {
			CorruptWire(f.Wire)
		}
		delay += fate.Extra
	}
	if drop {
		p.faultDrops++
		f.Release(p.Pool)
	} else {
		p.propagating++
		d := p.getDelivery()
		d.f = f
		p.Loop.After(delay, d.fn)
	}
	p.Kick()
}

// InFlight reports every frame currently inside the pipe: queued in its own
// FIFO, being serialized, or in the propagation-delay stage (frames Next has
// not yet taken belong to its source).
func (p *Pipe) InFlight() int {
	n := p.QueueLen() + p.propagating
	if p.busy {
		n++
	}
	return n
}

// FaultDrops reports the cumulative number of frames the Fault hook killed.
func (p *Pipe) FaultDrops() uint64 { return p.faultDrops }

// Release ends the pipe's life and hands its storage to Pool: the wire
// buffer of every frame it still holds — queued in its FIFO, on the wire, in
// the propagation stage — goes back, and then so do its FIFO array and its
// cells. It emits nothing and moves no counter. The pipe must not be used
// again, and its deliveries still pending on the loop must never fire: reset
// the loop before Pool serves another network.
func (p *Pipe) Release() {
	for i := p.head; i < len(p.q); i++ {
		p.q[i].Release(p.Pool)
	}
	p.cur.Release(p.Pool)
	var last *pipeDelivery
	for d := p.cells; d != nil; d = d.link {
		d.f.Release(p.Pool)
		d.p, d.f, d.next = nil, Frame{}, nil
		last = d
	}
	if p.Pool != nil {
		if last != nil {
			last.link, p.Pool.cells = p.Pool.cells, p.cells
		}
		if cap(p.q) > 0 {
			q := p.q[:cap(p.q)]
			clear(q)
			p.Pool.fifos = append(p.Pool.fifos, q[:0])
		}
	}
	p.q, p.head, p.free, p.cells = nil, 0, nil, nil
}

// getDelivery takes a free cell, or one the pool holds, or makes one.
func (p *Pipe) getDelivery() *pipeDelivery {
	if d := p.free; d != nil {
		p.free = d.next
		return d
	}
	var d *pipeDelivery
	if p.Pool != nil && p.Pool.cells != nil {
		d = p.Pool.cells
		p.Pool.cells = d.link
	} else {
		d = new(pipeDelivery)
		d.fn = d.fire
	}
	d.p, d.link, p.cells = p, p.cells, d
	return d
}

// fire delivers the frame after its propagation delay and recycles the
// delivery cell.
//
// Hot path: runs once per delivered frame.
func (d *pipeDelivery) fire() {
	p := d.p
	f := d.f
	d.f = Frame{}
	p.propagating--
	d.next, p.free = p.free, d
	p.Out(f)
}

// VOQ is a ToR virtual output queue: drop-tail, fixed capacity in packets,
// optional ECN marking at a threshold (DCTCP-style), and runtime resizing
// (used by the retcpdyn variant, which enlarges the VOQ ahead of a circuit
// day).
type VOQ struct {
	Loop *sim.Loop

	cap        int
	markThresh int // mark CE when occupancy (pre-enqueue) >= threshold; 0 disables

	// The queued frames are the n entries of the ring from ring[head] on,
	// wrapping at len(ring). The ring holds at least cap frames; only a
	// growing SetCap reallocates it.
	ring []Frame
	head int
	n    int

	// Total, when non-nil, is a count shared with other queues: every
	// accepted frame adds one to it and every dequeued frame takes one away,
	// so it reads their summed occupancy without visiting them.
	Total *int

	// Tracer, when non-nil, receives CatVOQ events (enqueue/dequeue/drop/
	// mark/resize); Label names this queue ("r0q1" = rack 0 → rack 1).
	// A VOQ serves whichever TDN is active, so its events carry tdn -1.
	Tracer *trace.Tracer
	Label  string

	// OccHist, when non-nil, records the post-enqueue occupancy (packets)
	// of every accepted frame, at zero allocation per enqueue.
	OccHist *trace.Histogram

	enq, deq, drops, marks uint64
}

// NewVOQ returns a VOQ with the given packet capacity and ECN mark
// threshold (0 disables marking).
func NewVOQ(loop *sim.Loop, capacity, markThresh int) *VOQ {
	return &VOQ{
		Loop:       loop,
		cap:        capacity,
		markThresh: markThresh,
		ring:       make([]Frame, capacity),
	}
}

// emit reports a CatVOQ event labeled with the queue's name.
func (v *VOQ) emit(name string, a, b float64) {
	if v.Tracer.Enabled(trace.CatVOQ) {
		v.Tracer.Emit(trace.CatVOQ, int64(v.Loop.Now()), name, -1, -1, a, b, v.Label)
	}
}

// Len reports current occupancy in packets.
func (v *VOQ) Len() int { return v.n }

// Cap reports the current capacity.
func (v *VOQ) Cap() int { return v.cap }

// SetCap resizes the queue at runtime. Shrinking below the current
// occupancy does not drop queued frames; it only refuses new ones, and the
// ring keeps its size. Growing past the ring reallocates it once, so the
// enlarged queue fills without any re-growth on the hot path (the retcpdyn
// variant resizes ahead of every circuit day).
func (v *VOQ) SetCap(n int) {
	if n != v.cap {
		v.emit("voq_resize", float64(n), float64(v.cap))
	}
	v.cap = n
	if n > len(v.ring) {
		ring := make([]Frame, n)
		k := copy(ring, v.ring[v.head:min(v.head+v.n, len(v.ring))])
		copy(ring[k:v.n], v.ring)
		v.ring = ring
		v.head = 0
	}
}

// Stats reports cumulative enqueue, dequeue, drop and ECN-mark counts.
func (v *VOQ) Stats() (enq, deq, drops, marks uint64) {
	return v.enq, v.deq, v.drops, v.marks
}

// Enqueue offers a frame to the queue, returning false (and dropping it) if
// the queue is full.
//
// Hot path: runs once per frame entering a VOQ.
func (v *VOQ) Enqueue(f Frame) bool {
	if v.Len() >= v.cap {
		v.drops++
		v.emit("voq_drop", float64(v.Len()), float64(v.drops))
		return false
	}
	if v.markThresh > 0 && v.Len() >= v.markThresh {
		f.MarkCE()
		v.marks++
		v.emit("voq_mark", float64(v.Len()), float64(v.marks))
	}
	i := v.head + v.n
	if i >= len(v.ring) {
		i -= len(v.ring)
	}
	v.ring[i] = f
	v.n++
	if v.Total != nil {
		*v.Total++
	}
	v.enq++
	v.OccHist.Record(int64(v.Len()))
	v.emit("voq_enq", float64(v.Len()), float64(v.cap))
	return true
}

// Dequeue removes and returns the frame at the head of the queue.
//
// Hot path: runs once per frame leaving a VOQ.
func (v *VOQ) Dequeue() (Frame, bool) {
	if v.n == 0 {
		return Frame{}, false
	}
	f := v.ring[v.head]
	v.ring[v.head] = Frame{}
	if v.head++; v.head == len(v.ring) {
		v.head = 0
	}
	v.n--
	if v.Total != nil {
		*v.Total--
	}
	v.deq++
	v.emit("voq_deq", float64(v.Len()), float64(v.cap))
	return f, true
}

// Release ends the queue's life: the wire buffer of every queued frame goes
// back to pool. Unlike draining the queue through Dequeue it emits nothing and
// moves no counter, so it may follow a run's result; the queue must not be
// used again.
func (v *VOQ) Release(pool *BufPool) {
	for i := range v.ring {
		v.ring[i].Release(pool) // a slot outside the queue holds the zero Frame
	}
	clear(v.ring)
}

// CheckInvariants validates the queue's internal accounting: head indexes the
// ring, the occupancy fits in it, and the cumulative enqueue/dequeue counters
// reconcile with the occupancy (enq - deq == Len). It returns a descriptive
// error on the first violation.
func (v *VOQ) CheckInvariants() error {
	if v.head < 0 || v.head >= max(len(v.ring), 1) {
		return fmt.Errorf("netem: voq %s head %d outside ring [0,%d)", v.Label, v.head, len(v.ring))
	}
	if v.n < 0 || v.n > len(v.ring) {
		return fmt.Errorf("netem: voq %s occupancy %d outside ring [0,%d]", v.Label, v.n, len(v.ring))
	}
	if v.deq > v.enq {
		return fmt.Errorf("netem: voq %s dequeued %d > enqueued %d", v.Label, v.deq, v.enq)
	}
	if got, want := uint64(v.Len()), v.enq-v.deq; got != want {
		return fmt.Errorf("netem: voq %s occupancy %d != enq-deq %d", v.Label, got, want)
	}
	return nil
}
