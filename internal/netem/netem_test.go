package netem

import (
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

func TestVOQMonitor(t *testing.T) {
	loop := sim.NewLoop(1)
	v := NewVOQ(loop, 8, 0)
	var samples []int
	v.Monitor = func(_ sim.Time, n int) { samples = append(samples, n) }
	f := testFrame(loop, 100)
	v.Enqueue(f)
	v.Enqueue(f)
	v.Dequeue()
	want := []int{1, 2, 1}
	if len(samples) != len(want) {
		t.Fatalf("samples = %v", samples)
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("samples = %v, want %v", samples, want)
		}
	}
}

func TestVOQCompaction(t *testing.T) {
	loop := sim.NewLoop(1)
	v := NewVOQ(loop, 1000, 0)
	f := testFrame(loop, 100)
	// Repeatedly cycle frames through to exercise the head-compaction path.
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			if !v.Enqueue(f) {
				t.Fatal("enqueue failed")
			}
		}
		for i := 0; i < 10; i++ {
			if _, ok := v.Dequeue(); !ok {
				t.Fatal("dequeue failed")
			}
		}
	}
	if v.Len() != 0 {
		t.Fatalf("len = %d", v.Len())
	}
	enq, deq, _, _ := v.Stats()
	if enq != 500 || deq != 500 {
		t.Fatalf("enq=%d deq=%d", enq, deq)
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
		{"head below the slice", func(v *VOQ) { v.head = -1 }, "head -1 outside backing slice [0,4]"},
		{"head past the slice", func(v *VOQ) { v.head = len(v.q) + 1 }, "head 5 outside backing slice [0,4]"},
		{"more dequeued than enqueued", func(v *VOQ) { v.deq = v.enq + 1 }, "dequeued 5 > enqueued 4"},
		{"enqueue not counted", func(v *VOQ) { v.enq-- }, "occupancy 2 != enq-deq 1"},
		{"dequeue not counted", func(v *VOQ) { v.deq-- }, "occupancy 2 != enq-deq 3"},
		{"frame lost from the ring", func(v *VOQ) { v.q = v.q[:len(v.q)-1] }, "occupancy 1 != enq-deq 2"},
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
