package rdcn

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/netem"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

func TestNumMatchings(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 3}, {4, 3}, {5, 5}, {6, 5}, {7, 7}, {8, 7}, {255, 255},
	} {
		if got := NumMatchings(tc.n); got != tc.want {
			t.Errorf("NumMatchings(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestRotorPeerProperties checks the round-robin tournament invariants for
// every rack count up to 16: each matching is an involution with no
// self-pairing, even rack counts leave nobody idle, odd rack counts idle
// exactly one rack per matching, and over a full rotation every rack pair is
// circuit-connected exactly once.
func TestRotorPeerProperties(t *testing.T) {
	for n := 2; n <= 16; n++ {
		met := make(map[[2]int]int)
		for day := 1; day <= NumMatchings(n); day++ {
			idle := 0
			for r := 0; r < n; r++ {
				p := RotorPeer(n, day, r)
				if p == -1 {
					idle++
					continue
				}
				if p < 0 || p >= n {
					t.Fatalf("n=%d day=%d: RotorPeer(%d) = %d out of range", n, day, r, p)
				}
				if p == r {
					t.Fatalf("n=%d day=%d: rack %d paired with itself", n, day, r)
				}
				if back := RotorPeer(n, day, p); back != r {
					t.Fatalf("n=%d day=%d: not an involution: %d->%d->%d", n, day, r, p, back)
				}
				if r < p {
					met[[2]int{r, p}]++
				}
			}
			wantIdle := 0
			if n%2 == 1 {
				wantIdle = 1
			}
			if idle != wantIdle {
				t.Fatalf("n=%d day=%d: %d idle racks, want %d", n, day, idle, wantIdle)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if met[[2]int{i, j}] != 1 {
					t.Fatalf("n=%d: pair (%d,%d) met %d times, want exactly once", n, i, j, met[[2]int{i, j}])
				}
			}
		}
	}
}

func TestRotorPeerOutOfRange(t *testing.T) {
	for _, tc := range [][3]int{
		{1, 1, 0}, {4, 0, 0}, {4, 4, 0}, {4, 1, -1}, {4, 1, 4}, {2, 2, 0},
	} {
		if got := RotorPeer(tc[0], tc[1], tc[2]); got != -1 {
			t.Errorf("RotorPeer(%d,%d,%d) = %d, want -1", tc[0], tc[1], tc[2], got)
		}
	}
}

// TestRotorWeekTwoRacksIsHybridWeek pins the backward-compatibility contract:
// the rotor schedule degenerates to the paper's two-rack hybrid week.
func TestRotorWeekTwoRacksIsHybridWeek(t *testing.T) {
	day, night := 180*sim.Microsecond, 20*sim.Microsecond
	got := RotorWeek(2, 6, day, night)
	want := HybridWeek(6, day, night)
	if !reflect.DeepEqual(got.Slots, want.Slots) {
		t.Fatalf("RotorWeek(2,6) slots = %v, want HybridWeek(6) slots %v", got.Slots, want.Slots)
	}
	if got.Week() != want.Week() {
		t.Fatalf("RotorWeek(2,6) week = %v, want %v", got.Week(), want.Week())
	}
}

func TestRotorWeekShape(t *testing.T) {
	day, night := 100*sim.Microsecond, 10*sim.Microsecond
	n := 4
	sch := RotorWeek(n, 2, day, night)
	nm := NumMatchings(n) // 3
	if got, want := len(sch.Slots), (2+1)*2*nm; got != want {
		t.Fatalf("slot count = %d, want %d", got, want)
	}
	if got, want := sch.NumTDNs(), nm+1; got != want {
		t.Fatalf("NumTDNs = %d, want %d", got, want)
	}
	// Every optical TDN gets the same share of circuit time.
	for k := 1; k <= nm; k++ {
		if got, want := sch.TDNShare(k), sch.TDNShare(1); got != want {
			t.Fatalf("TDNShare(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestRotorTDNs(t *testing.T) {
	pkt := TDNParams{Rate: 10 * sim.Gbps, Delay: 49 * sim.Microsecond}
	opt := TDNParams{Rate: 100 * sim.Gbps, Delay: 19 * sim.Microsecond}
	tdns := RotorTDNs(8, pkt, opt)
	if len(tdns) != 8 { // 1 packet + 7 matchings
		t.Fatalf("len = %d, want 8", len(tdns))
	}
	if tdns[0] != pkt {
		t.Fatalf("TDN 0 = %+v, want packet params", tdns[0])
	}
	for k := 1; k < len(tdns); k++ {
		if tdns[k] != opt {
			t.Fatalf("TDN %d = %+v, want optical params", k, tdns[k])
		}
	}
}

func TestValidateRotor(t *testing.T) {
	day, night := 100*sim.Microsecond, 10*sim.Microsecond
	if err := validateRotor(4, RotorWeek(4, 2, day, night)); err != nil {
		t.Fatalf("valid rotor schedule rejected: %v", err)
	}
	// A 6-rack schedule references matchings a 4-rack fabric does not have.
	if err := validateRotor(4, RotorWeek(6, 2, day, night)); err == nil {
		t.Fatal("over-wide schedule accepted")
	}
}

// TestNewRejectsBadMultiRack covers the multi-rack constructor guards.
func TestNewRejectsBadMultiRack(t *testing.T) {
	loop := sim.NewLoop(1)
	cfg := DefaultConfig()
	cfg.Racks = 4
	cfg.TDNs = RotorTDNs(4, cfg.TDNs[0], cfg.TDNs[1])
	cfg.Schedule = RotorWeek(6, 2, 180*sim.Microsecond, 20*sim.Microsecond)
	if _, err := New(loop, cfg); err == nil {
		t.Fatal("New accepted a 6-rack schedule on a 4-rack fabric")
	}
	cfg.Schedule = RotorWeek(4, 2, 180*sim.Microsecond, 20*sim.Microsecond)
	if _, err := New(loop, cfg); err != nil {
		t.Fatalf("valid 4-rack config rejected: %v", err)
	}
}

// TestMultiRackDelivery runs real frames across a two-rack hybrid and a
// 4-rack rotor fabric and checks routing (every frame reaches the addressed
// host, including the intra-rack hairpin) plus the conservation ledger.
func TestMultiRackDelivery(t *testing.T) {
	for _, racks := range []int{2, 4} {
		t.Run(fmt.Sprintf("racks=%d", racks), func(t *testing.T) {
			loop := sim.NewLoop(7)
			cfg := DefaultConfig()
			cfg.Racks = racks
			cfg.HostsPerRack = 2
			cfg.TDNs = RotorTDNs(racks, cfg.TDNs[0], cfg.TDNs[1])
			cfg.Schedule = RotorWeek(racks, 2, 180*sim.Microsecond, 20*sim.Microsecond)
			n, err := New(loop, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[uint32]int)
			for _, rack := range n.Racks {
				for _, h := range rack.Hosts {
					addr := h.Addr
					h.Recv = func(f netem.Frame) { got[addr]++ }
				}
			}
			n.Start(sim.Time(10 * sim.Millisecond))
			// Every host sends one segment to every other host (including same-rack).
			sent := 0
			for _, rack := range n.Racks {
				for _, h := range rack.Hosts {
					for dr := 0; dr < cfg.Racks; dr++ {
						for dh := 0; dh < cfg.HostsPerRack; dh++ {
							dst := HostAddr(dr, dh)
							if dst == h.Addr {
								continue
							}
							h.Send(&packet.Segment{Dst: dst, TTL: 64, Proto: packet.ProtoTCP})
							sent++
						}
					}
				}
			}
			loop.RunUntil(sim.Time(10 * sim.Millisecond))
			total := 0
			for addr, c := range got {
				if c != cfg.Racks*cfg.HostsPerRack-1 {
					t.Errorf("host %08x received %d frames, want %d", addr, c, cfg.Racks*cfg.HostsPerRack-1)
				}
				total += c
			}
			if total != sent {
				t.Errorf("delivered %d frames, sent %d", total, sent)
			}
			if err := n.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if in, del, mis := n.FrameLedger(); in != uint64(sent) || del != uint64(sent) || mis != 0 {
				t.Fatalf("ledger = (%d,%d,%d), want (%d,%d,0)", in, del, mis, sent, sent)
			}
		})
	}
}

// TestMultiRackMisroute checks that a frame addressed outside the fabric is
// dropped and accounted as misrouted, not lost from the ledger.
func TestMultiRackMisroute(t *testing.T) {
	loop := sim.NewLoop(7)
	cfg := DefaultConfig()
	cfg.Racks = 4
	cfg.HostsPerRack = 2
	cfg.TDNs = RotorTDNs(4, cfg.TDNs[0], cfg.TDNs[1])
	cfg.Schedule = RotorWeek(4, 2, 180*sim.Microsecond, 20*sim.Microsecond)
	n, err := New(loop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start(sim.Time(1 * sim.Millisecond))
	n.Racks[0].Hosts[0].Send(&packet.Segment{Dst: HostAddr(9, 0), TTL: 64, Proto: packet.ProtoTCP})
	loop.RunUntil(sim.Time(1 * sim.Millisecond))
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if _, del, mis := n.FrameLedger(); del != 0 || mis != 1 {
		t.Fatalf("delivered %d, misrouted %d; want 0, 1", del, mis)
	}
}

// TestDataPlanePathIsExact: every VOQ link's path, read through the network's
// kept slot and its path table, equals the schedule asked afresh at
// now - ScheduleOffset(now), filtered by CircuitOK and the rotor matching.
// The offset steps from -7 µs to +7 µs at every odd week's start, so the
// evaluation time runs 14 µs backwards there, and one circuit flaps for a
// window that opens and closes inside its days.
func TestDataPlanePathIsExact(t *testing.T) {
	const racks = 4
	cfg := DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = racks, 1
	cfg.Schedule = RotorWeek(racks, 2, us(10), us(2)) // 18 slots, 108 µs
	cfg.TDNs = RotorTDNs(racks, cfg.TDNs[0], cfg.TDNs[1])
	week := sim.Time(cfg.Schedule.Week())
	offset := func(now sim.Time) sim.Dur {
		if now/week%2 == 1 {
			return us(7)
		}
		return -us(7)
	}
	flapFrom, flapTo := week+sim.Time(us(3)), 2*week+sim.Time(us(50))
	circuitOK := func(tdn int, now sim.Time) bool { return tdn != 2 || now < flapFrom || now >= flapTo }
	cfg.ScheduleOffset, cfg.CircuitOK = offset, circuitOK
	loop, n := buildNet(t, cfg)

	want := func(rack, dst int, now sim.Time) (netem.Path, bool) {
		tdn, ok, _ := cfg.Schedule.At(now.Add(-offset(now)))
		if !ok || !circuitOK(tdn, now) {
			return netem.Path{}, false
		}
		p := cfg.TDNs[tdn]
		if tdn == 0 {
			return netem.Path{Rate: p.Rate / (racks - 1), Delay: p.Delay}, true
		}
		if RotorPeer(racks, tdn, rack) != dst {
			return netem.Path{}, false
		}
		return netem.Path{Rate: p.Rate, Delay: p.Delay}, true
	}
	var checks, up, flapped int
	check := func() {
		now := loop.Now()
		for _, r := range n.Racks {
			for q := range r.links {
				got, gok := n.path(n.pathRow(r.ID, q))
				wp, wok := want(r.ID, r.qDst(q), now)
				if got != wp || gok != wok {
					t.Fatalf("rack %d -> %d at %v: path (%+v, %v), want (%+v, %v)", r.ID, r.qDst(q), now, got, gok, wp, wok)
				}
				checks++
				if gok {
					up++
				}
				if tdn, ok, _ := cfg.Schedule.At(now.Add(-offset(now))); ok && tdn == 2 && !circuitOK(tdn, now) {
					flapped++
				}
			}
		}
	}
	// Every half microsecond, and a nanosecond before every microsecond: the
	// slot edges of both the nominal and the drifted schedule fall on whole
	// microseconds.
	for at := sim.Time(0); at < 4*week; at += sim.Time(us(1)) / 2 {
		loop.At(at, check)
		if at%sim.Time(us(1)) == 0 && at > 0 {
			loop.At(at-1, check)
		}
	}
	loop.RunUntil(4 * week)
	if checks == 0 || up == 0 || up == checks || flapped == 0 {
		t.Fatalf("%d checks, %d with a path, %d inside the flap: the test exercises nothing", checks, up, flapped)
	}
}

// TestClusterIsInert builds the 8-rack rotor the way benchmark/ladder.go's
// forward rung does, with Config.Cluster set to a sim.ShardedLoop shim whose
// Control() loop is passed to New and driven by the shim's RunUntil, and
// checks that it is the same network as one on a plain loop: the same (time,
// rack, host) delivery sequence, the same notifications, the same frame
// ledger, and conservation at every step.
func TestClusterIsInert(t *testing.T) {
	const racks, frames = 8, 4000
	type delivery struct {
		at         sim.Time
		rack, host int
		tdn        int // -1 for a frame, the TDN for a notification
	}
	run := func(engine *sim.ShardedLoop) ([]delivery, [3]uint64) {
		cfg := DefaultConfig()
		cfg.Racks, cfg.HostsPerRack = racks, 1
		cfg.TDNs = RotorTDNs(racks, cfg.TDNs[0], cfg.TDNs[1])
		cfg.Schedule = RotorWeek(racks, 6, 180*sim.Microsecond, 20*sim.Microsecond)
		loop := sim.NewLoop(1)
		runUntil := loop.RunUntil
		if engine != nil {
			loop, runUntil, cfg.Cluster = engine.Control(), engine.RunUntil, engine
		}
		n, err := New(loop, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []delivery
		for _, r := range n.Racks {
			h := r.Hosts[0]
			h.Recv = func(netem.Frame) { got = append(got, delivery{loop.Now(), h.Rack.ID, h.ID, -1}) }
			h.NotifyTDN = func(tdn int, _ uint32) { got = append(got, delivery{loop.Now(), h.Rack.ID, h.ID, tdn}) }
		}
		n.Start(sim.Time(sim.Second))
		segs := make([]*packet.Segment, racks)
		for s := range segs {
			segs[s] = &packet.Segment{Dst: HostAddr((s+1)%racks, 0), TTL: 64, Proto: packet.ProtoTCP,
				TCP: packet.TCPHeader{Flags: packet.FlagACK, PayloadLen: 8960}}
		}
		now := sim.Time(0)
		for step := 0; ; step++ {
			sent, delivered, _ := n.FrameLedger()
			if delivered >= frames {
				break
			}
			if step > 10000 {
				t.Fatalf("only %d of %d frames delivered", delivered, frames)
			}
			for ; sent-delivered < 12*racks; sent += racks {
				for s, seg := range segs {
					n.Racks[s].Hosts[0].Send(seg)
				}
			}
			now = now.Add(20 * sim.Microsecond)
			runUntil(now)
			if err := n.CheckConservation(); err != nil {
				t.Fatal(err)
			}
		}
		sent, delivered, misrouted := n.FrameLedger()
		return got, [3]uint64{sent, delivered, misrouted}
	}
	plain, plainLedger := run(nil)
	lanes, lanesLedger := run(sim.NewSharded(1, racks, 1))
	if plainLedger != lanesLedger {
		t.Fatalf("frame ledger (sent, delivered, misrouted): plain loop %v, Cluster %v", plainLedger, lanesLedger)
	}
	if !reflect.DeepEqual(plain, lanes) {
		for i := range min(len(plain), len(lanes)) {
			if plain[i] != lanes[i] {
				t.Fatalf("delivery %d: plain loop %+v, Cluster %+v", i, plain[i], lanes[i])
			}
		}
		t.Fatalf("%d deliveries on a plain loop, %d under Cluster", len(plain), len(lanes))
	}
}
