// Package netem provides the network-emulation building blocks the RDCN
// model is assembled from: host NIC pipes, ToR virtual output queues (VOQs)
// with drop-tail and ECN-marking behaviour, and schedule-driven drainers that
// serialize frames onto whichever time-division network is currently active.
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

// NewFrame serializes seg into a freshly allocated frame stamped at the
// current time.
func NewFrame(loop *sim.Loop, seg *packet.Segment) Frame {
	return NewFrameIn(loop, nil, seg)
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

// Pipe is a serializing link with an unbounded FIFO: the host NIC and its
// qdisc. Frames are serialized one at a time at Rate, then delivered to the
// sink Delay later. Pipe is never the statistics bottleneck in the paper's
// topology (hosts have fabric-rate NICs) but it shapes bursts realistically.
type Pipe struct {
	Loop  *sim.Loop
	Rate  sim.Rate
	Delay sim.Dur
	Out   Sink

	// Fault, when non-nil, is consulted once per frame when serialization
	// completes; the returned fate may drop, corrupt, or extra-delay the
	// frame (internal/fault installs this hook).
	Fault func(Frame) FrameFate

	// Pool, when non-nil, receives the wire buffers of frames the Fault
	// hook drops — the only point where a frame dies inside the pipe.
	Pool *BufPool

	// Coalesce is ignored: every frame in the propagation-delay stage is one
	// loop event. It is set only under benchmark/ and goes with the
	// one-loop shim in internal/sim/shard.go (ROADMAP item 2).
	Coalesce bool

	q    []Frame
	head int
	busy bool

	// Serialization is a one-at-a-time state machine: cur is the frame on
	// the wire, serializedFn the single bound callback that finishes it.
	// Propagation overlaps (several frames can be in the Delay stage at
	// once), so deliveries ride inflight cells from a free list, each with
	// its own callback bound exactly once.
	cur          Frame
	serializedFn func()
	deliveryFree []*pipeDelivery

	propagating int    // frames in the propagation-delay stage
	faultDrops  uint64 // frames killed by the Fault hook
}

// pipeDelivery carries one frame through the propagation-delay stage.
type pipeDelivery struct {
	p  *Pipe
	f  Frame
	fn func()
}

// Send enqueues a frame for transmission.
func (p *Pipe) Send(f Frame) {
	p.q = append(p.q, f)
	p.kick()
}

// QueueLen reports the number of frames waiting in the pipe (not counting
// one being serialized).
func (p *Pipe) QueueLen() int { return len(p.q) - p.head }

func (p *Pipe) kick() {
	if p.busy || p.QueueLen() == 0 {
		return
	}
	f := p.q[p.head]
	p.q[p.head] = Frame{}
	p.head++
	if p.head > 64 && p.head*2 >= len(p.q) {
		p.q = append(p.q[:0], p.q[p.head:]...)
		p.head = 0
	}
	p.busy = true
	p.cur = f
	if p.serializedFn == nil {
		p.serializedFn = p.serialized
	}
	p.Loop.After(p.Rate.TransmitTime(f.Len), p.serializedFn)
}

// serialized finishes the frame currently on the wire: it consults the fault
// hook, schedules the propagation-delay delivery, and starts the next frame.
// Delivery is scheduled before the next kick so event order (and therefore
// the trace) matches a frame-at-a-time reading of the pipeline.
func (p *Pipe) serialized() {
	f := p.cur
	p.cur = Frame{}
	p.busy = false
	delay := p.Delay
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
	p.kick()
}

// InFlight reports every frame currently inside the pipe: queued, being
// serialized, or in the propagation-delay stage.
func (p *Pipe) InFlight() int {
	n := p.QueueLen() + p.propagating
	if p.busy {
		n++
	}
	return n
}

// FaultDrops reports the cumulative number of frames the Fault hook killed.
func (p *Pipe) FaultDrops() uint64 { return p.faultDrops }

func (p *Pipe) getDelivery() *pipeDelivery {
	if n := len(p.deliveryFree); n > 0 {
		d := p.deliveryFree[n-1]
		p.deliveryFree[n-1] = nil
		p.deliveryFree = p.deliveryFree[:n-1]
		return d
	}
	d := &pipeDelivery{p: p}
	d.fn = d.fire
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
	p.deliveryFree = append(p.deliveryFree, d)
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

	// OnEnqueue, when non-nil, is called when a frame is accepted; the
	// drainer uses it to wake up.
	OnEnqueue func()

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
	if v.OnEnqueue != nil {
		v.OnEnqueue()
	}
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

// Path describes the network a drainer is currently serving: the bottleneck
// rate and the one-way propagation delay of the active TDN.
type Path struct {
	Rate  sim.Rate
	Delay sim.Dur
}

// PathFunc reports the currently active path. ok is false during a night
// (reconfiguration blackout), when nothing may be sent.
type PathFunc func() (p Path, ok bool)

// Drainer serializes frames from a VOQ onto the currently active path. It is
// the ToR's uplink transmitter: one frame at a time, at the active TDN's
// rate, delivered to the sink after the TDN's propagation delay. When the
// schedule blacks out the path the drainer idles until Kick is called.
type Drainer struct {
	Loop *sim.Loop
	Q    *VOQ
	Path PathFunc
	Out  Sink

	busy bool

	// Same state-machine shape as Pipe: one frame serializes at a time
	// (cur, curDelay, one bound serializedFn), while propagation-delay
	// deliveries overlap on free-listed cells.
	cur          Frame
	curDelay     sim.Dur
	serializedFn func()
	deliveryFree []*drainDelivery

	propagating int // frames in the propagation-delay stage
}

// drainDelivery carries one frame through the propagation-delay stage.
type drainDelivery struct {
	d  *Drainer
	f  Frame
	fn func()
}

// Attach wires the drainer to its queue's enqueue notification and starts
// draining if frames are already waiting.
func (d *Drainer) Attach() {
	d.Q.OnEnqueue = d.Kick
	d.Kick()
}

// Kick attempts to (re)start draining. Call whenever the path may have
// become active, e.g. at every schedule transition.
func (d *Drainer) Kick() {
	if d.busy {
		return
	}
	path, ok := d.Path()
	if !ok {
		return
	}
	f, ok := d.Q.Dequeue()
	if !ok {
		return
	}
	d.busy = true
	d.cur = f
	d.curDelay = path.Delay
	if d.serializedFn == nil {
		d.serializedFn = d.serialized
	}
	d.Loop.After(path.Rate.TransmitTime(f.Len), d.serializedFn)
}

// serialized finishes the frame on the wire: delivery is scheduled before
// the next Kick so event order matches a frame-at-a-time reading.
func (d *Drainer) serialized() {
	f := d.cur
	d.cur = Frame{}
	d.busy = false
	d.propagating++
	dd := d.getDelivery()
	dd.f = f
	d.Loop.After(d.curDelay, dd.fn)
	d.Kick()
}

// InFlight reports every frame currently owned by the drainer: being
// serialized or in the propagation-delay stage (queued frames belong to the
// VOQ).
func (d *Drainer) InFlight() int {
	n := d.propagating
	if d.busy {
		n++
	}
	return n
}

func (d *Drainer) getDelivery() *drainDelivery {
	if n := len(d.deliveryFree); n > 0 {
		dd := d.deliveryFree[n-1]
		d.deliveryFree[n-1] = nil
		d.deliveryFree = d.deliveryFree[:n-1]
		return dd
	}
	dd := &drainDelivery{d: d}
	dd.fn = dd.fire
	return dd
}

// fire delivers the frame at the end of serialization and recycles the
// delivery cell.
//
// Hot path: runs once per drained frame.
func (dd *drainDelivery) fire() {
	d := dd.d
	f := dd.f
	dd.f = Frame{}
	d.propagating--
	d.deliveryFree = append(d.deliveryFree, dd)
	d.Out(f)
}
