package mptcp

import (
	"math"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
)

// wire is one direction of one subflow's path: it delivers each segment
// after delay. The pinning is the endpoints' own (their gates hold what an
// inactive subflow sends), so the wire holds nothing.
type wire struct {
	loop  *sim.Loop
	delay sim.Dur
	dst   func(*packet.Segment)
	// drop, when non-nil, discards matching segments.
	drop func(*packet.Segment) bool
}

func (w *wire) send(s *packet.Segment) {
	if w.drop != nil && w.drop(s) {
		return
	}
	b := s.Serialize(nil)
	w.loop.After(w.delay, func() {
		var got packet.Segment
		if err := packet.Parse(b, &got); err != nil {
			panic(err)
		}
		w.dst(&got)
	})
}

type env struct {
	t      *testing.T
	loop   *sim.Loop
	active int
	epoch  uint32
	snd    *Conn
	rcv    *Conn
	wires  []*wire // 0,1: snd->rcv per TDN; 2,3: rcv->snd per TDN
}

func newEnv(t *testing.T, cfg Config) *env { return newEnvOn(t, cfg, sim.NewLoop(5)) }

// newEnvOn is newEnv on a loop that already exists.
func newEnvOn(t *testing.T, cfg Config, loop *sim.Loop) *env {
	e := &env{t: t, loop: loop}
	delays := []sim.Dur{50 * sim.Microsecond, 5 * sim.Microsecond}
	for i := 0; i < 4; i++ {
		e.wires = append(e.wires, &wire{loop: loop, delay: delays[i%2]})
	}
	e.snd = New(e.loop, cfg, e.out(&e.snd, e.wires[:2]))
	e.rcv = New(e.loop, cfg, e.out(&e.rcv, e.wires[2:]))
	for i, sub := range e.snd.Subflows() {
		sub.LocalAddr, sub.RemoteAddr = 1, 2
		sub.LocalPort, sub.RemotePort = uint16(1000+i), uint16(2000+i)
		e.wires[2+i].dst = sub.Input
	}
	for i, sub := range e.rcv.Subflows() {
		sub.LocalAddr, sub.RemoteAddr = 2, 1
		sub.LocalPort, sub.RemotePort = uint16(2000+i), uint16(1000+i)
		e.wires[i].dst = sub.Input
	}
	return e
}

// out is an endpoint's one transmit function: it demultiplexes a segment by
// source port onto the wire of the subflow that sent it.
func (e *env) out(c **Conn, wires []*wire) func(*packet.Segment) {
	return func(s *packet.Segment) {
		for k, sub := range (*c).Subflows() {
			if sub.LocalPort == s.TCP.SrcPort {
				wires[k].send(s)
				return
			}
		}
		e.t.Fatalf("no subflow sends from port %d", s.TCP.SrcPort)
	}
}

// switchTDN moves the fabric to tdn and notifies both endpoints' schedulers,
// whose gates release what they held for it.
func (e *env) switchTDN(tdn int) {
	e.active = tdn
	e.epoch++
	e.snd.Notify(tdn, e.epoch)
	e.rcv.Notify(tdn, e.epoch)
}

func (e *env) runFor(d sim.Dur) { e.loop.RunUntil(e.loop.Now().Add(d)) }

func TestSingleSubflowTransfer(t *testing.T) {
	e := newEnv(t, Config{})
	e.rcv.Listen()
	const total = 40 * 8960
	e.snd.Connect(total)
	e.runFor(20 * sim.Millisecond)
	if e.rcv.DeliveredBytes != total {
		t.Fatalf("delivered %d, want %d", e.rcv.DeliveredBytes, total)
	}
	if e.snd.Backlog() != 0 {
		t.Fatalf("backlog %d remains", e.snd.Backlog())
	}
	// All data rode subflow 0 (TDN 0 active throughout).
	if e.snd.Subflows()[1].Stats.BytesSent != 0 {
		t.Fatal("inactive subflow carried data")
	}
}

func TestSchedulerSteersToActiveSubflow(t *testing.T) {
	e := newEnv(t, Config{})
	e.rcv.Listen()
	e.snd.Connect(-1)
	e.runFor(2 * sim.Millisecond) // establish sub0; sub1's handshake is held
	e.switchTDN(1)
	e.runFor(3 * sim.Millisecond) // sub1 establishes, then carries data
	if e.snd.Subflows()[1].Stats.BytesSent == 0 {
		t.Fatal("active subflow 1 carried no data after switch")
	}
	// The inactive subflow may still RTO-retransmit stranded data, but it
	// must not be given any new data to send.
	nxt0 := e.snd.Subflows()[0].SndNxt()
	e.runFor(2 * sim.Millisecond)
	if e.snd.Subflows()[0].SndNxt() != nxt0 {
		t.Fatal("inactive subflow 0 was scheduled new data")
	}
	if e.snd.Stats.SchedulerSwitches != 1 {
		t.Fatalf("switches = %d", e.snd.Stats.SchedulerSwitches)
	}
}

func TestStrandedDataIsReinjected(t *testing.T) {
	// Reinjection is lazy: it fires when the shared send buffer fills with
	// data stranded on an inactive subflow (§2.2's flow-control stall). The
	// 12 segments queued below overfill the 64 KiB send buffer.
	e := newEnv(t, Config{})
	e.rcv.Listen()
	e.snd.Connect(0)
	// Establish both subflows: bring TDN1 up once.
	e.runFor(2 * sim.Millisecond)
	e.switchTDN(1)
	e.runFor(2 * sim.Millisecond)
	if !e.snd.Subflows()[1].Established() {
		t.Fatal("subflow 1 not established")
	}
	// With TDN1 active, queue data, let it be sent but not yet delivered
	// (5us one-way), then yank the network back to TDN0: data+ACKs strand,
	// the buffer fills, and the scheduler must reinject on subflow 0.
	e.snd.QueueBytes(12 * 8960)
	e.runFor(2 * sim.Microsecond)
	e.switchTDN(0)
	e.runFor(5 * sim.Millisecond)
	if e.snd.Stats.BufferStalls == 0 {
		t.Fatal("send buffer never stalled")
	}
	if e.snd.Stats.ReinjectEvents == 0 {
		t.Fatal("no reinjection despite stranded subflow")
	}
	if e.rcv.DeliveredBytes != 12*8960 {
		t.Fatalf("delivered %d, want %d", e.rcv.DeliveredBytes, 12*8960)
	}
	// When TDN1 next activates, the stranded originals arrive as duplicates.
	e.switchTDN(1)
	e.runFor(2 * sim.Millisecond)
	if e.rcv.Stats.DupDSNBytes == 0 {
		t.Fatal("stranded originals never arrived as DSN duplicates")
	}
	if e.rcv.DeliveredBytes != 12*8960 {
		t.Fatalf("duplicates corrupted delivery count: %d", e.rcv.DeliveredBytes)
	}
}

func TestDeliveryMonotoneAcrossSwitches(t *testing.T) {
	e := newEnv(t, Config{})
	e.rcv.Listen()
	var last int64
	e.loop.PostEvent = func() {
		total := e.rcv.DeliveredBytes
		if total < last {
			t.Fatalf("delivery regressed: %d after %d", total, last)
		}
		last = total
	}
	const total = 100 * 8960
	e.snd.Connect(total)
	// Alternate TDNs on a fixed cadence.
	for i := 0; i < 40 && e.rcv.DeliveredBytes < total; i++ {
		e.runFor(400 * sim.Microsecond)
		e.switchTDN(1 - e.active)
	}
	e.runFor(20 * sim.Millisecond)
	if e.rcv.DeliveredBytes != total {
		t.Fatalf("delivered %d, want %d (reinject=%d)", e.rcv.DeliveredBytes, total, e.snd.Stats.ReinjectEvents)
	}
}

func TestDSNReassembly(t *testing.T) {
	m := &Conn{Loop: sim.NewLoop(1)}
	// Out-of-order DSN arrival with overlaps and duplicates.
	m.acceptDSN(packet.SeqOf(100), 50) // ooo
	if m.DeliveredBytes != 0 {
		t.Fatal("ooo delivered early")
	}
	m.acceptDSN(packet.SeqOf(0), 50) // prefix
	if m.DeliveredBytes != 50 {
		t.Fatalf("delivered %d, want 50", m.DeliveredBytes)
	}
	m.acceptDSN(packet.SeqOf(50), 50) // bridges to 150
	if m.DeliveredBytes != 150 {
		t.Fatalf("delivered %d, want 150", m.DeliveredBytes)
	}
	m.acceptDSN(packet.SeqOf(0), 150) // full duplicate
	if m.DeliveredBytes != 150 || m.Stats.DupDSNBytes != 150 {
		t.Fatalf("dup handling wrong: delivered=%d dup=%d", m.DeliveredBytes, m.Stats.DupDSNBytes)
	}
	m.acceptDSN(packet.SeqOf(140), 20) // partial overlap: 10 new
	if m.DeliveredBytes != 160 {
		t.Fatalf("delivered %d, want 160", m.DeliveredBytes)
	}
	// Many interleaved ranges.
	for _, r := range [][2]uint32{{300, 310}, {280, 290}, {320, 330}, {290, 300}, {310, 320}} {
		m.acceptDSN(packet.SeqOf(r[0]), int(r[1]-r[0]))
	}
	if m.DeliveredBytes != 160 {
		t.Fatal("disjoint ranges advanced the pointer")
	}
	m.acceptDSN(packet.SeqOf(160), 120) // bridge everything: contiguous to 330
	if m.DeliveredBytes != 330 {
		t.Fatalf("delivered %d, want 330", m.DeliveredBytes)
	}
	if len(m.ranges) != 0 {
		t.Fatalf("ranges not drained: %v", m.ranges)
	}
}

func TestSubflowPolicyRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("subflow policy accepted")
		}
	}()
	cfg := Config{Sub: tcp.Config{Policy: tcp.NewSinglePath()}}
	cfg.fillDefaults()
}

// TestNotifyEpochWraparound pins the RFC 1982 epoch gate of the tdm_schd
// scheduler across the uint32 wrap: notifications keep steering after the
// epoch counter passes MaxUint32, and stale/duplicate epochs from before the
// wrap stay rejected. (The raw `epoch <= m.epoch` comparison this replaces
// froze the scheduler on the pre-wrap subflow forever.)
func TestNotifyEpochWraparound(t *testing.T) {
	loop := sim.NewLoop(1)
	m := New(loop, Config{}, func(*packet.Segment) {})

	m.Notify(1, math.MaxUint32) // last epoch before the wrap
	if m.Active() != 1 {
		t.Fatalf("active = %d, want 1", m.Active())
	}
	m.Notify(0, 1) // first epoch after the wrap (epoch 0 is the bypass value)
	if m.Active() != 0 {
		t.Fatal("post-wrap notification was rejected as stale")
	}
	m.Notify(1, math.MaxUint32) // stale replay from before the wrap
	if m.Active() != 0 {
		t.Fatal("stale pre-wrap replay was applied")
	}
	m.Notify(1, 1) // exact duplicate of the applied epoch
	if m.Active() != 0 {
		t.Fatal("duplicate epoch was applied")
	}
	if got := m.Stats.SchedulerSwitches; got != 2 {
		t.Fatalf("scheduler switches = %d, want 2", got)
	}
}

// TestGateHoldsUntilItsTDN: a subflow's segments wait in its gate, deep
// copies, while another subflow is active; a notification the epoch check
// accepts releases what its TDN's gate held, and a stale or duplicate one
// releases nothing; Release empties the gates.
func TestGateHoldsUntilItsTDN(t *testing.T) {
	var sent []packet.Segment
	m := New(sim.NewLoop(1), Config{}, func(s *packet.Segment) { sent = append(sent, *s.Clone()) })
	seg := func(port uint16) *packet.Segment {
		return &packet.Segment{TCP: packet.TCPHeader{SrcPort: port, SACK: []packet.SACKBlock{{Start: 7, End: 9}}}}
	}
	s1 := seg(11)
	m.gates[1].send(s1)
	s1.TCP.SACK[0].Start = 0 // the sender reuses its segment once Out returns
	m.gates[0].send(seg(10))
	if len(sent) != 1 || sent[0].TCP.SrcPort != 10 {
		t.Fatalf("with subflow 0 active, %v went out", sent)
	}
	m.Notify(1, 5)
	if len(sent) != 2 || sent[1].TCP.SrcPort != 11 || sent[1].TCP.SACK[0].Start != 7 {
		t.Fatalf("after the notification for TDN 1, %v went out; want subflow 1's held segment as sent", sent)
	}
	m.gates[0].send(seg(10))
	m.Notify(0, 4) // stale
	m.Notify(1, 5) // duplicate
	if len(sent) != 2 || len(m.gates[0].held) != 1 || m.Active() != 1 {
		t.Fatalf("a stale or duplicate notification moved the gates: %d sent, %d held, active %d",
			len(sent), len(m.gates[0].held), m.Active())
	}
	m.Release()
	for k, g := range m.gates {
		if len(g.held) != 0 {
			t.Errorf("released endpoint's gate %d holds %d segments", k, len(g.held))
		}
	}
	if m.out != nil {
		t.Error("released endpoint still holds its transmit function")
	}
}
