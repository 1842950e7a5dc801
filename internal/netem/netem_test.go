package netem

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

func testFrame(loop *sim.Loop, payload int) Frame {
	seg := &packet.Segment{
		Src: 1, Dst: 2, TTL: 64, Proto: packet.ProtoTCP,
		TCP: packet.TCPHeader{Flags: packet.FlagACK, PayloadLen: payload},
	}
	return NewFrame(loop, seg)
}

func TestPipeSerialization(t *testing.T) {
	loop := sim.NewLoop(1)
	var arrivals []sim.Time
	p := &Pipe{Loop: loop, Rate: 10 * sim.Gbps, Delay: 5 * sim.Microsecond,
		Out: func(Frame) { arrivals = append(arrivals, loop.Now()) }}
	// Two 1250-byte frames: 1 us serialization each at 10 Gbps.
	f := testFrame(loop, 1250-40)
	if f.Len != 1250 {
		t.Fatalf("frame len = %d, want 1250", f.Len)
	}
	p.Send(f)
	p.Send(f)
	loop.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	if arrivals[0] != sim.Time(6*sim.Microsecond) {
		t.Fatalf("first arrival at %v, want 6us", arrivals[0])
	}
	if arrivals[1] != sim.Time(7*sim.Microsecond) {
		t.Fatalf("second arrival at %v, want 7us (back-to-back serialization)", arrivals[1])
	}
}

func TestPipeFIFO(t *testing.T) {
	loop := sim.NewLoop(1)
	var got []int
	p := &Pipe{Loop: loop, Rate: 1 * sim.Gbps, Out: func(f Frame) {
		var s packet.Segment
		if err := packet.Parse(f.Wire, &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, int(s.TCP.Seq))
	}}
	for i := 0; i < 20; i++ {
		seg := &packet.Segment{Src: 1, Dst: 2, Proto: packet.ProtoTCP,
			TCP: packet.TCPHeader{Seq: uint32(i), Flags: packet.FlagACK}}
		p.Send(NewFrame(loop, seg))
	}
	loop.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestVOQDropTail(t *testing.T) {
	loop := sim.NewLoop(1)
	v := NewVOQ(loop, 4, 0)
	f := testFrame(loop, 100)
	for i := 0; i < 6; i++ {
		ok := v.Enqueue(f)
		if ok != (i < 4) {
			t.Fatalf("enqueue %d ok=%v", i, ok)
		}
	}
	if v.Len() != 4 {
		t.Fatalf("len = %d", v.Len())
	}
	_, _, drops, _ := v.Stats()
	if drops != 2 {
		t.Fatalf("drops = %d", drops)
	}
	for i := 0; i < 4; i++ {
		if _, ok := v.Dequeue(); !ok {
			t.Fatalf("dequeue %d failed", i)
		}
	}
	if _, ok := v.Dequeue(); ok {
		t.Fatal("dequeue from empty succeeded")
	}
}

func TestVOQECNMarking(t *testing.T) {
	loop := sim.NewLoop(1)
	v := NewVOQ(loop, 16, 4)
	for i := 0; i < 8; i++ {
		v.Enqueue(testFrame(loop, 100))
	}
	marked := 0
	for {
		f, ok := v.Dequeue()
		if !ok {
			break
		}
		var s packet.Segment
		if err := packet.Parse(f.Wire, &s); err != nil {
			t.Fatalf("checksum broken after marking: %v", err)
		}
		if s.ECN == packet.ECNCE {
			marked++
		}
	}
	// Occupancy before enqueue reaches 4 on the 5th frame: frames 5..8 marked.
	if marked != 4 {
		t.Fatalf("marked = %d, want 4", marked)
	}
}

func TestMarkCCEChecksumProperty(t *testing.T) {
	f := func(src, dst uint32, seq uint32, ecn uint8) bool {
		loop := sim.NewLoop(1)
		seg := &packet.Segment{Src: src, Dst: dst, TTL: 64, Proto: packet.ProtoTCP,
			ECN: ecn & 0x03,
			TCP: packet.TCPHeader{Seq: seq, Flags: packet.FlagACK}}
		fr := NewFrame(loop, seg)
		fr.MarkCE()
		var got packet.Segment
		if err := packet.Parse(fr.Wire, &got); err != nil {
			return false
		}
		return got.ECN == packet.ECNCE && got.Src == src && got.Dst == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVOQResize(t *testing.T) {
	loop := sim.NewLoop(1)
	v := NewVOQ(loop, 2, 0)
	f := testFrame(loop, 100)
	v.Enqueue(f)
	v.Enqueue(f)
	if v.Enqueue(f) {
		t.Fatal("over-capacity enqueue succeeded")
	}
	v.SetCap(50)
	for i := 0; i < 48; i++ {
		if !v.Enqueue(f) {
			t.Fatalf("enqueue %d failed after resize", i)
		}
	}
	if v.Enqueue(f) {
		t.Fatal("enqueue past resized cap succeeded")
	}
	// Shrinking below occupancy keeps existing frames.
	v.SetCap(4)
	if v.Len() != 50 {
		t.Fatalf("len = %d after shrink", v.Len())
	}
	if v.Enqueue(f) {
		t.Fatal("enqueue into shrunk queue succeeded")
	}
}

// TestVOQRingIsFIFO drives queues with a random mix of enqueues, dequeues
// and resizes against a plain slice: a queue accepts a frame exactly when the
// slice holds fewer than its current capacity, every frame leaves in the
// order it entered, and the accounting holds after each step. Small
// capacities make head and tail wrap at every offset, so grows and shrinks
// find frames straddling the wrap.
func TestVOQRingIsFIFO(t *testing.T) {
	loop := sim.NewLoop(1)
	rng := rand.New(rand.NewSource(1))
	next, straddled := 0, 0
	for queue := 0; queue < 200; queue++ {
		v := NewVOQ(loop, 1+rng.Intn(4), 0)
		var model []int
		for step := 0; step < 100; step++ {
			switch r := rng.Intn(20); {
			case r < 9:
				next++
				if ok := v.Enqueue(Frame{Len: next}); ok != (len(model) < v.Cap()) {
					t.Fatalf("queue %d step %d: enqueue at %d/%d returned %v", queue, step, len(model), v.Cap(), ok)
				} else if ok {
					model = append(model, next)
				}
			case r < 19:
				f, ok := v.Dequeue()
				if ok != (len(model) > 0) || ok && f.Len != model[0] {
					t.Fatalf("queue %d step %d: dequeued frame %d (ok=%v), want the oldest of %v", queue, step, f.Len, ok, model)
				}
				if ok {
					model = model[1:]
				}
			default:
				n := rng.Intn(13)
				if n > len(v.ring) && v.head+v.n > len(v.ring) {
					straddled++
				}
				v.SetCap(n)
			}
			if v.Len() != len(model) {
				t.Fatalf("queue %d step %d: len %d, want %d", queue, step, v.Len(), len(model))
			}
			if err := v.CheckInvariants(); err != nil {
				t.Fatalf("queue %d step %d: %v", queue, step, err)
			}
		}
	}
	if straddled == 0 {
		t.Fatal("no grow found frames straddling the wrap")
	}
}

// TestVOQDoesNotAllocate: after NewVOQ, enqueueing and dequeueing allocate
// nothing, up to capacity and across a grow/shrink cycle once the grow has
// sized the ring. CI prints it beside the run-level allocation contracts.
func TestVOQDoesNotAllocate(t *testing.T) {
	loop := sim.NewLoop(1)
	v := NewVOQ(loop, 16, 0)
	var total int
	v.Total = &total
	f := Frame{Len: 1500}
	fill := func(n int) {
		for i := 0; i < n; i++ {
			v.Enqueue(f)
		}
		for i := 0; i < n; i++ {
			v.Dequeue()
		}
	}
	v.SetCap(50)
	fill(50)
	v.SetCap(16)
	if got := testing.AllocsPerRun(100, func() {
		fill(16)
		v.Enqueue(f) // drop-tail at cap 16
		v.SetCap(50)
		fill(50)
		v.SetCap(16)
		fill(20) // four of them dropped
	}); got != 0 {
		t.Fatalf("%v allocations per enqueue/dequeue cycle, want 0", got)
	}
	if v.Len() != 0 || total != 0 {
		t.Fatalf("len %d, total %d after draining", v.Len(), total)
	}
}

func TestDrainerRespectsSchedule(t *testing.T) {
	loop := sim.NewLoop(1)
	v := NewVOQ(loop, 100, 0)
	active := false
	var arrivals []sim.Time
	d := &Drainer{
		Loop: loop, Q: v,
		Path: func() (Path, bool) {
			return Path{Rate: 10 * sim.Gbps, Delay: 10 * sim.Microsecond}, active
		},
		Out: func(Frame) { arrivals = append(arrivals, loop.Now()) },
	}
	d.Attach()
	v.Enqueue(testFrame(loop, 1250-40)) // 1us serialization
	loop.RunUntil(sim.Time(100 * sim.Microsecond))
	if len(arrivals) != 0 {
		t.Fatal("frame drained while path inactive")
	}
	active = true
	d.Kick()
	loop.Run()
	if len(arrivals) != 1 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	if want := sim.Time(111 * sim.Microsecond); arrivals[0] != want {
		t.Fatalf("arrival at %v, want %v", arrivals[0], want)
	}
}

func TestDrainerRateSwitch(t *testing.T) {
	// Two frames; the path rate changes between them. Each frame should be
	// serialized at the rate in effect when its transmission starts.
	loop := sim.NewLoop(1)
	v := NewVOQ(loop, 100, 0)
	rate := 10 * sim.Gbps
	var arrivals []sim.Time
	d := &Drainer{
		Loop: loop, Q: v,
		Path: func() (Path, bool) { return Path{Rate: rate, Delay: 0}, true },
		Out:  func(Frame) { arrivals = append(arrivals, loop.Now()) },
	}
	d.Attach()
	f := testFrame(loop, 12500-40) // 10us at 10Gbps, 1us at 100Gbps
	v.Enqueue(f)
	v.Enqueue(f)
	loop.At(sim.Time(9500*sim.Nanosecond), func() { rate = 100 * sim.Gbps })
	loop.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	if arrivals[0] != sim.Time(10*sim.Microsecond) {
		t.Fatalf("first arrival %v", arrivals[0])
	}
	if arrivals[1] != sim.Time(11*sim.Microsecond) {
		t.Fatalf("second arrival %v, want 11us (new rate)", arrivals[1])
	}
}

func TestDrainerDeliversInOrderAcrossDelayDrop(t *testing.T) {
	// A latency drop between frames can cause the later frame to arrive
	// before the earlier one (cross-TDN reordering). The drainer must allow
	// this: it models two different physical paths.
	loop := sim.NewLoop(1)
	v := NewVOQ(loop, 100, 0)
	delay := 50 * sim.Microsecond
	type arrival struct {
		seq uint32
		at  sim.Time
	}
	var arrivals []arrival
	d := &Drainer{
		Loop: loop, Q: v,
		Path: func() (Path, bool) { return Path{Rate: 100 * sim.Gbps, Delay: delay}, true },
		Out: func(f Frame) {
			var s packet.Segment
			if err := packet.Parse(f.Wire, &s); err != nil {
				t.Fatal(err)
			}
			arrivals = append(arrivals, arrival{s.TCP.Seq, loop.Now()})
		},
	}
	d.Attach()
	mk := func(seq uint32) Frame {
		return NewFrame(loop, &packet.Segment{Src: 1, Dst: 2, Proto: packet.ProtoTCP,
			TCP: packet.TCPHeader{Seq: seq, Flags: packet.FlagACK, PayloadLen: 100}})
	}
	v.Enqueue(mk(1))
	loop.At(sim.Time(2*sim.Microsecond), func() {
		delay = 1 * sim.Microsecond // path switches to the low-latency TDN
		v.Enqueue(mk(2))
	})
	loop.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	if arrivals[0].seq != 2 || arrivals[1].seq != 1 {
		t.Fatalf("expected cross-TDN reordering, got %+v", arrivals)
	}
}

// TestVOQCheckInvariantsNamesTheBrokenRule: every rule of VOQ.CheckInvariants
// fails when, and only when, the state it guards is corrupted. Each row
// corrupts one field of a queue that has enqueued, dequeued and dropped, and
// expects the error naming that rule and the queue.
func TestVOQCheckInvariantsNamesTheBrokenRule(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(v *VOQ)
		want    string // "" = no violation
	}{
		{"uncorrupted", func(v *VOQ) {}, ""},
		{"head below the slice", func(v *VOQ) { v.head = -1 }, "head -1 outside ring [0,4)"},
		{"head past the slice", func(v *VOQ) { v.head = len(v.ring) }, "head 4 outside ring [0,4)"},
		{"occupancy past the ring", func(v *VOQ) { v.n = len(v.ring) + 1 }, "occupancy 5 outside ring [0,4]"},
		{"more dequeued than enqueued", func(v *VOQ) { v.deq = v.enq + 1 }, "dequeued 5 > enqueued 4"},
		{"enqueue not counted", func(v *VOQ) { v.enq-- }, "occupancy 2 != enq-deq 1"},
		{"dequeue not counted", func(v *VOQ) { v.deq-- }, "occupancy 2 != enq-deq 3"},
		{"frame lost from the ring", func(v *VOQ) { v.n-- }, "occupancy 1 != enq-deq 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loop := sim.NewLoop(1)
			v := NewVOQ(loop, 4, 0)
			v.Label = "r0q1"
			for i := 0; i < 6; i++ {
				v.Enqueue(testFrame(loop, 100)) // the fifth and sixth are dropped
			}
			v.Dequeue()
			v.Dequeue()
			tc.corrupt(v)
			err := v.CheckInvariants()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("live queue: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), "voq r0q1 "+tc.want)):
				t.Fatalf("got %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
