package rdcn

import (
	"testing"
	"testing/quick"

	"github.com/rdcn-net/tdtcp/internal/netem"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

func us(n int64) sim.Dur { return sim.Dur(n) * sim.Microsecond }

func TestHybridWeekLayout(t *testing.T) {
	s := HybridWeek(6, us(180), us(20))
	if got := s.Week(); got != us(1400) {
		t.Fatalf("week = %v, want 1400us", got)
	}
	if s.NumTDNs() != 2 {
		t.Fatalf("NumTDNs = %d", s.NumTDNs())
	}
	if dc := s.DutyCycle(); dc != 0.9 {
		t.Fatalf("duty cycle = %v, want 0.9", dc)
	}
	if sh := s.TDNShare(1); sh != 180.0/1400 {
		t.Fatalf("optical share = %v", sh)
	}
	if sh := s.TDNShare(0); sh != 1080.0/1400 {
		t.Fatalf("packet share = %v", sh)
	}
}

func TestScheduleAt(t *testing.T) {
	s := HybridWeek(2, us(180), us(20)) // 0:[0,180) night:[180,200) 0:[200,380) night:[380,400) 1:[400,580) night:[580,600)
	cases := []struct {
		at  sim.Time
		tdn int
		ok  bool
		end sim.Time
	}{
		{0, 0, true, sim.Time(us(180))},
		{sim.Time(us(179)), 0, true, sim.Time(us(180))},
		{sim.Time(us(180)), NightTDN, false, sim.Time(us(200))},
		{sim.Time(us(400)), 1, true, sim.Time(us(580))},
		{sim.Time(us(599)), NightTDN, false, sim.Time(us(600))},
		{sim.Time(us(600)), 0, true, sim.Time(us(780))}, // wraps into week 2
		{sim.Time(us(1000)), 1, true, sim.Time(us(1180))},
	}
	for _, c := range cases {
		tdn, ok, end := s.At(c.at)
		if tdn != c.tdn || ok != c.ok || end != c.end {
			t.Errorf("At(%v) = (%d,%v,%v), want (%d,%v,%v)", c.at, tdn, ok, end, c.tdn, c.ok, c.end)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	if _, err := NewSchedule(nil); err == nil {
		t.Fatal("empty schedule accepted")
	}
	if _, err := NewSchedule([]Slot{{TDN: 0, Dur: 0}}); err == nil {
		t.Fatal("zero-duration slot accepted")
	}
	if _, err := NewSchedule([]Slot{{TDN: -2, Dur: 1}}); err == nil {
		t.Fatal("invalid TDN accepted")
	}
}

// Property: At is periodic with period Week and slotEnd is always in the
// future and at most one week away.
func TestScheduleAtProperty(t *testing.T) {
	s := HybridWeek(6, us(180), us(20))
	f := func(raw uint32) bool {
		at := sim.Time(raw) * 17
		tdn1, ok1, end1 := s.At(at)
		tdn2, ok2, end2 := s.At(at.Add(s.Week()))
		if tdn1 != tdn2 || ok1 != ok2 {
			return false
		}
		if end2.Sub(end1) != s.Week() {
			return false
		}
		return end1 > at && end1.Sub(at) <= s.Week()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHostAddr(t *testing.T) {
	a := HostAddr(1, 5)
	if a != 0x0A010005 {
		t.Fatalf("HostAddr = %x", a)
	}
}

func buildNet(t *testing.T, cfg Config) (*sim.Loop, *Network) {
	t.Helper()
	loop := sim.NewLoop(1)
	n, err := New(loop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return loop, n
}

func TestNewValidation(t *testing.T) {
	loop := sim.NewLoop(1)
	cfg := DefaultConfig()
	cfg.HostsPerRack = 0
	if _, err := New(loop, cfg); err == nil {
		t.Fatal("zero hosts accepted")
	}
	cfg = DefaultConfig()
	cfg.Schedule = nil
	if _, err := New(loop, cfg); err == nil {
		t.Fatal("nil schedule accepted")
	}
	cfg = DefaultConfig()
	cfg.TDNs = cfg.TDNs[:1]
	if _, err := New(loop, cfg); err == nil {
		t.Fatal("schedule with more TDNs than configured accepted")
	}
}

func TestEndToEndDelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HostsPerRack = 2
	loop, n := buildNet(t, cfg)
	src := n.Racks[0].Hosts[1]
	dst := n.Racks[1].Hosts[1]
	var got []packet.Segment
	dst.Recv = func(f netem.Frame) {
		var s packet.Segment
		if err := packet.Parse(f.Wire, &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	n.Start(sim.Time(us(1000)))
	seg := &packet.Segment{
		Dst: dst.Addr, TTL: 64, Proto: packet.ProtoTCP,
		TCP: packet.TCPHeader{Seq: 7, Flags: packet.FlagACK, PayloadLen: 1000},
	}
	loop.After(0, func() { src.Send(seg) })
	loop.RunUntil(sim.Time(us(1000)))
	if len(got) != 1 {
		t.Fatalf("delivered %d segments", len(got))
	}
	if got[0].TCP.Seq != 7 || got[0].Src != src.Addr {
		t.Fatalf("segment mangled: %+v", got[0])
	}
}

func TestDeliveryPausedDuringNight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HostsPerRack = 1
	cfg.HostDelay = 0
	// Short days so the test spans a night quickly.
	cfg.Schedule = MustSchedule([]Slot{
		{TDN: 0, Dur: us(50)}, {TDN: NightTDN, Dur: us(50)}, {TDN: 1, Dur: us(50)}, {TDN: NightTDN, Dur: us(50)},
	})
	loop, n := buildNet(t, cfg)
	dst := n.Racks[1].Hosts[0]
	var arrivals []sim.Time
	dst.Recv = func(netem.Frame) { arrivals = append(arrivals, loop.Now()) }
	n.Start(sim.Time(us(400)))
	// Send one packet during the first night: it must wait for the next day.
	loop.At(sim.Time(us(60)), func() {
		n.Racks[0].Hosts[0].Send(&packet.Segment{
			Dst: dst.Addr, TTL: 64, Proto: packet.ProtoTCP,
			TCP: packet.TCPHeader{Flags: packet.FlagACK, PayloadLen: 1000},
		})
	})
	loop.RunUntil(sim.Time(us(400)))
	if len(arrivals) != 1 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// Day 2 (TDN 1) starts at 100us; TDN 1 delay is 19us; +serialization.
	if arrivals[0] < sim.Time(us(100)) {
		t.Fatalf("frame crossed fabric during night at %v", arrivals[0])
	}
	if arrivals[0] > sim.Time(us(125)) {
		t.Fatalf("frame unduly delayed: %v", arrivals[0])
	}
}

func TestNotifications(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HostsPerRack = 2
	cfg.Notify = NotifyProfile{Gen: us(1), Stagger: us(2), Net: us(1)}
	loop, n := buildNet(t, cfg)
	type notif struct {
		at    sim.Time
		tdn   int
		epoch uint32
	}
	perHost := make(map[int][]notif)
	for i, h := range n.Racks[0].Hosts {
		i, h := i, h
		h.NotifyTDN = func(tdn int, epoch uint32) {
			perHost[i] = append(perHost[i], notif{loop.Now(), tdn, epoch})
		}
	}
	n.Start(sim.Time(us(1400))) // one full week
	loop.RunUntil(sim.Time(us(1450)))
	// 7 days in a week -> 7 notifications per host.
	for i := 0; i < 2; i++ {
		if len(perHost[i]) != 7 {
			t.Fatalf("host %d got %d notifications, want 7", i, len(perHost[i]))
		}
	}
	// First notification: day 0 at t=0, host 0 at Gen+Net = 2us, host 1
	// staggered 2us later.
	if perHost[0][0].at != sim.Time(us(2)) {
		t.Fatalf("host0 first notify at %v", perHost[0][0].at)
	}
	if perHost[1][0].at != sim.Time(us(4)) {
		t.Fatalf("host1 first notify at %v", perHost[1][0].at)
	}
	// The 7th day (optical) notification carries TDN 1.
	if perHost[0][6].tdn != 1 {
		t.Fatalf("7th notification tdn = %d, want 1", perHost[0][6].tdn)
	}
	// Epochs strictly increase.
	for i := 1; i < 7; i++ {
		if perHost[0][i].epoch <= perHost[0][i-1].epoch {
			t.Fatalf("epochs not increasing: %+v", perHost[0])
		}
	}
}

func TestPreChangeResizesVOQ(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HostsPerRack = 1
	cfg.PreChange = &PreChange{TDN: 1, Lead: us(150), Cap: 50}
	loop, n := buildNet(t, cfg)
	var preNotifies []sim.Time
	n.Racks[0].Hosts[0].NotifyPreChange = func(tdn int) {
		if tdn != 1 {
			t.Fatalf("pre-change tdn = %d", tdn)
		}
		preNotifies = append(preNotifies, loop.Now())
	}
	n.Start(sim.Time(us(1400)))
	// Optical day of week 1 runs [1200,1380); resize is due at 1050.
	loop.RunUntil(sim.Time(us(1040)))
	if n.Racks[0].VOQ().Cap() != 16 {
		t.Fatalf("cap resized too early: %d", n.Racks[0].VOQ().Cap())
	}
	loop.RunUntil(sim.Time(us(1060)))
	if n.Racks[0].VOQ().Cap() != 50 {
		t.Fatalf("cap = %d at lead time, want 50", n.Racks[0].VOQ().Cap())
	}
	loop.RunUntil(sim.Time(us(1390)))
	if n.Racks[0].VOQ().Cap() != 16 {
		t.Fatalf("cap = %d after optical day, want 16 restored", n.Racks[0].VOQ().Cap())
	}
	if len(preNotifies) != 1 || preNotifies[0] != sim.Time(us(1050)) {
		t.Fatalf("preNotifies = %v, want one at 1050us", preNotifies)
	}
}

func TestActiveTDN(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HostsPerRack = 1
	loop, n := buildNet(t, cfg)
	n.Start(sim.Time(us(1400)))
	loop.RunUntil(sim.Time(us(50)))
	if tdn, ok := n.ActiveTDN(); !ok || tdn != 0 {
		t.Fatalf("ActiveTDN at 50us = %d,%v", tdn, ok)
	}
	loop.RunUntil(sim.Time(us(190)))
	if _, ok := n.ActiveTDN(); ok {
		t.Fatal("ActiveTDN during night reported ok")
	}
	loop.RunUntil(sim.Time(us(1250)))
	if tdn, ok := n.ActiveTDN(); !ok || tdn != 1 {
		t.Fatalf("ActiveTDN at 1250us = %d,%v", tdn, ok)
	}
}

func TestNotifyJitterDeterministic(t *testing.T) {
	run := func() []float64 {
		loop := sim.NewLoop(99)
		cfg := DefaultConfig()
		cfg.HostsPerRack = 4
		cfg.Notify = NotifyProfile{Gen: us(1), Net: us(1), Jitter: us(5)}
		n, _ := New(loop, cfg)
		var times []float64
		for _, h := range n.Racks[0].Hosts {
			h.NotifyTDN = func(int, uint32) { times = append(times, loop.Now().Microseconds()) }
		}
		n.Start(sim.Time(us(300)))
		loop.RunUntil(sim.Time(us(300)))
		return times
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jittered notifications not deterministic at %d", i)
		}
	}
}
