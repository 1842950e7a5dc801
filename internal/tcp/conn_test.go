package tcp

import (
	"bytes"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/cc"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// wire is a test transport between two Conns: serializes, optionally drops
// or marks segments, and delivers after a (mutable) one-way delay.
type wire struct {
	loop  *sim.Loop
	delay sim.Dur
	// drop, when non-nil, discards matching segments.
	drop func(*packet.Segment) bool
	// dst receives parsed segments.
	dst  *Conn
	sent int
}

func (w *wire) send(s *packet.Segment) {
	w.sent++
	if w.drop != nil && w.drop(s) {
		return
	}
	b := s.Serialize(nil)
	w.loop.After(w.delay, func() {
		var got packet.Segment
		if err := packet.Parse(b, &got); err != nil {
			panic(err)
		}
		w.dst.Input(&got)
	})
}

type pairOpt struct {
	cfgA, cfgB Config
	delay      sim.Dur
}

func newPair(t *testing.T, opt pairOpt) (loop *sim.Loop, a, b *Conn, wa, wb *wire) {
	t.Helper()
	loop = sim.NewLoop(7)
	a, b, wa, wb = newPairOn(loop, opt)
	return
}

// newPairOn is newPair on a loop that already exists.
func newPairOn(loop *sim.Loop, opt pairOpt) (a, b *Conn, wa, wb *wire) {
	if opt.delay == 0 {
		opt.delay = 50 * sim.Microsecond
	}
	wa = &wire{loop: loop, delay: opt.delay}
	wb = &wire{loop: loop, delay: opt.delay}
	a = NewConn(loop, opt.cfgA, wa.send)
	b = NewConn(loop, opt.cfgB, wb.send)
	a.LocalAddr, a.RemoteAddr, a.LocalPort, a.RemotePort = 1, 2, 1000, 2000
	b.LocalAddr, b.RemoteAddr, b.LocalPort, b.RemotePort = 2, 1, 2000, 1000
	wa.dst, wb.dst = b, a
	return
}

func runFor(loop *sim.Loop, d sim.Dur) { loop.RunUntil(loop.Now().Add(d)) }

func TestHandshake(t *testing.T) {
	loop, a, b, _, _ := newPair(t, pairOpt{})
	b.Listen()
	a.Connect(0)
	runFor(loop, 10*sim.Millisecond)
	if !a.Established() || !b.Established() {
		t.Fatalf("not established: a=%v b=%v", a, b)
	}
	if a.TDEnabled() || b.TDEnabled() {
		t.Fatal("TD negotiated without TD_CAPABLE")
	}
	// Handshake RTT sample taken.
	if a.States()[0].SRTT != 100*sim.Microsecond {
		t.Fatalf("SRTT = %v, want 100us", a.States()[0].SRTT)
	}
}

func TestHandshakeTDNegotiation(t *testing.T) {
	cases := []struct {
		na, nb int
		want   bool
	}{
		{2, 2, true},
		{2, 3, false},
		{2, 0, false},
		{0, 2, false},
		{1, 1, false},
		{4, 4, true},
	}
	for _, cse := range cases {
		loop, a, b, _, _ := newPair(t, pairOpt{
			cfgA: Config{NumTDNs: cse.na}, cfgB: Config{NumTDNs: cse.nb},
		})
		b.Listen()
		a.Connect(0)
		runFor(loop, 10*sim.Millisecond)
		if a.TDEnabled() != cse.want || b.TDEnabled() != cse.want {
			t.Errorf("NumTDNs %d/%d: tdEnabled a=%v b=%v, want %v",
				cse.na, cse.nb, a.TDEnabled(), b.TDEnabled(), cse.want)
		}
	}
}

func TestHandshakeSYNLoss(t *testing.T) {
	loop, a, b, wa, _ := newPair(t, pairOpt{})
	b.Listen()
	drops := 0
	wa.drop = func(s *packet.Segment) bool {
		if s.TCP.Flags&packet.FlagSYN != 0 && drops == 0 {
			drops++
			return true
		}
		return false
	}
	a.Connect(0)
	runFor(loop, 50*sim.Millisecond)
	if !a.Established() || !b.Established() {
		t.Fatalf("handshake did not recover from SYN loss: a=%v b=%v", a, b)
	}
	if a.Stats.RTOFires == 0 {
		t.Fatal("SYN retransmission did not use RTO")
	}
}

func TestBulkTransferClean(t *testing.T) {
	loop, a, b, _, _ := newPair(t, pairOpt{})
	b.Listen()
	const total = 500 * 8960
	a.Connect(total)
	runFor(loop, 200*sim.Millisecond)
	if b.Stats.BytesDelivered != total {
		t.Fatalf("delivered %d, want %d", b.Stats.BytesDelivered, total)
	}
	if a.Stats.Retransmits != 0 {
		t.Fatalf("clean path had %d retransmits", a.Stats.Retransmits)
	}
	if a.Stats.BytesAcked < total {
		t.Fatalf("acked %d < %d", a.Stats.BytesAcked, total)
	}
	if b.Stats.DupSegsRcvd != 0 {
		t.Fatalf("receiver saw %d duplicate segments", b.Stats.DupSegsRcvd)
	}
}

func TestDeliveryMonotonic(t *testing.T) {
	loop, a, b, wa, _ := newPair(t, pairOpt{})
	b.Listen()
	var last int64
	loop.PostEvent = func() {
		total := b.Stats.BytesDelivered
		if total < last {
			t.Fatalf("delivery regressed: %d after %d", total, last)
		}
		last = total
	}
	// Drop ~5% of data segments pseudo-randomly.
	i := 0
	wa.drop = func(s *packet.Segment) bool {
		if s.TCP.PayloadLen == 0 {
			return false
		}
		i++
		return i%19 == 0
	}
	a.Connect(300 * 8960)
	runFor(loop, 2*sim.Second)
	if b.Stats.BytesDelivered != 300*8960 {
		t.Fatalf("delivered %d, want %d (retransmits %d, rto %d)",
			b.Stats.BytesDelivered, 300*8960, a.Stats.Retransmits, a.Stats.RTOFires)
	}
}

func TestFastRetransmitOnLoss(t *testing.T) {
	loop, a, b, wa, _ := newPair(t, pairOpt{})
	b.Listen()
	dropped := false
	var dropSeq uint32
	wa.drop = func(s *packet.Segment) bool {
		// Drop the 20th data segment once.
		if s.TCP.PayloadLen > 0 && !dropped && s.TCP.Seq-a.iss.Uint32() > 19*8960 && s.TCP.Seq-a.iss.Uint32() < 21*8960 {
			dropped = true
			dropSeq = s.TCP.Seq
			return true
		}
		return false
	}
	a.Connect(100 * 8960)
	runFor(loop, 100*sim.Millisecond)
	if !dropped {
		t.Fatal("test did not drop anything")
	}
	_ = dropSeq
	if b.Stats.BytesDelivered != 100*8960 {
		t.Fatalf("delivered %d", b.Stats.BytesDelivered)
	}
	if a.Stats.FastRetransmits == 0 {
		t.Fatal("loss was not repaired by fast retransmit")
	}
	if a.Stats.RTOFires != 0 {
		t.Fatalf("fast-retransmittable loss caused %d RTOs", a.Stats.RTOFires)
	}
	// The loss must have cost a multiplicative decrease.
	if got := a.States()[0].CC.Ssthresh(); got > 1e6 {
		t.Fatal("ssthresh never set by recovery")
	}
}

func TestCwndReducedOnRecovery(t *testing.T) {
	loop, a, b, wa, _ := newPair(t, pairOpt{})
	b.Listen()
	n := 0
	wa.drop = func(s *packet.Segment) bool {
		if s.TCP.PayloadLen > 0 {
			n++
			return n == 30
		}
		return false
	}
	a.Connect(-1)
	// Track the peak cwnd before recovery and the trough after it: the
	// multiplicative decrease must be visible.
	peak, trough := 0.0, 1e18
	for i := 0; i < 500; i++ {
		runFor(loop, 10*sim.Microsecond)
		w := a.States()[0].Cwnd()
		if a.Stats.FastRetransmits == 0 {
			if w > peak {
				peak = w
			}
		} else if w < trough {
			trough = w
		}
	}
	if a.Stats.FastRetransmits == 0 {
		t.Fatal("no recovery happened")
	}
	if trough > peak*0.8 {
		t.Fatalf("cwnd peak %v -> trough %v, expected multiplicative decrease", peak, trough)
	}
}

func TestTailLossProbe(t *testing.T) {
	loop, a, b, wa, _ := newPair(t, pairOpt{})
	b.Listen()
	// Drop the very last data segment of the transfer once: only TLP can
	// recover it without an RTO.
	total := int64(50 * 8960)
	dropped := false
	wa.drop = func(s *packet.Segment) bool {
		if s.TCP.PayloadLen > 0 && !dropped && s.TCP.Seq-a.iss.Uint32() == uint32(total)-8960+1 {
			dropped = true
			return true
		}
		return false
	}
	a.Connect(total)
	runFor(loop, 100*sim.Millisecond)
	if !dropped {
		t.Fatal("tail segment never sent")
	}
	if b.Stats.BytesDelivered != total {
		t.Fatalf("delivered %d, want %d", b.Stats.BytesDelivered, total)
	}
	if a.Stats.TLPProbes == 0 {
		t.Fatal("tail loss repaired without TLP probe")
	}
}

func TestRTOOnBlackout(t *testing.T) {
	loop, a, b, wa, _ := newPair(t, pairOpt{cfgA: Config{
		RcvBuf: 128 << 10, MinRTO: 500 * sim.Microsecond,
	}, cfgB: Config{RcvBuf: 128 << 10}})
	b.Listen()
	blackout := false
	wa.drop = func(s *packet.Segment) bool { return blackout && s.TCP.PayloadLen > 0 }
	a.Connect(-1)
	loop.At(sim.Time(1*sim.Millisecond), func() { blackout = true })
	loop.At(sim.Time(5*sim.Millisecond), func() { blackout = false })
	runFor(loop, 10*sim.Millisecond)
	if a.Stats.RTOFires == 0 {
		t.Fatal("4ms blackout did not fire RTO")
	}
	if a.States()[0].CC.Cwnd() < 1 {
		t.Fatal("cwnd collapsed below 1")
	}
	// Flow must be moving again after the blackout.
	before := b.Stats.BytesDelivered
	runFor(loop, 10*sim.Millisecond)
	if b.Stats.BytesDelivered <= before {
		t.Fatal("flow did not resume after blackout")
	}
}

func TestReceiverSACKRanges(t *testing.T) {
	loop, a, b, wa, _ := newPair(t, pairOpt{})
	b.Listen()
	// Drop segments 5 and 10 on first transmission.
	n := 0
	wa.drop = func(s *packet.Segment) bool {
		if s.TCP.PayloadLen == 0 {
			return false
		}
		n++
		return n == 5 || n == 10
	}
	a.Connect(20 * 8960)
	runFor(loop, 100*sim.Millisecond)
	if b.Stats.BytesDelivered != 20*8960 {
		t.Fatalf("delivered %d", b.Stats.BytesDelivered)
	}
	if len(b.Ranges()) != 0 {
		t.Fatalf("receiver still holds ranges: %v", b.Ranges())
	}
}

func TestDSACKOnSpuriousRetransmit(t *testing.T) {
	// Delay ACKs enough that the sender RTOs and retransmits spuriously;
	// the receiver must emit D-SACKs and the sender must undo.
	loop, a, b, wa, wb := newPair(t, pairOpt{cfgA: Config{
		MinRTO: 500 * sim.Microsecond,
	}})
	b.Listen()
	a.Connect(0)
	runFor(loop, 5*sim.Millisecond) // establish with normal delay
	if !a.Established() {
		t.Fatal("not established")
	}
	_ = wa
	wb.delay = 2 * sim.Millisecond // ACK path suddenly very slow
	a.QueueBytes(5 * 8960)
	runFor(loop, 30*sim.Millisecond)
	if b.Stats.DupSegsRcvd == 0 {
		t.Fatal("no duplicate segments at receiver; scenario did not trigger")
	}
	if b.Stats.DSACKsSent == 0 {
		t.Fatal("receiver did not send D-SACKs")
	}
	if a.Stats.BytesAcked != 5*8960 {
		t.Fatalf("acked %d", a.Stats.BytesAcked)
	}
}

func TestReorderingDetectedNotLost(t *testing.T) {
	// Swap two adjacent data segments in delivery: SACK opens briefly but
	// no retransmission should occur (hole is filled before dupthresh).
	loop, a, b, _, _ := newPair(t, pairOpt{})
	b.Listen()
	a.Connect(0)
	runFor(loop, 5*sim.Millisecond)
	// Inject data manually with a custom out that delays one segment.
	held := false
	orig := a.Out
	a.Out = func(s *packet.Segment) {
		if s.TCP.PayloadLen > 0 && !held {
			held = true
			cp := *s
			loop.After(120*sim.Microsecond, func() { orig(&cp) })
			return
		}
		orig(s)
	}
	a.QueueBytes(6 * 8960)
	runFor(loop, 20*sim.Millisecond)
	if b.Stats.BytesDelivered != 6*8960 {
		t.Fatalf("delivered %d", b.Stats.BytesDelivered)
	}
	if a.Stats.ReorderEvents == 0 {
		t.Fatal("reordering not observed")
	}
}

func TestECNEcho(t *testing.T) {
	loop, a, b, wa, _ := newPair(t, pairOpt{
		cfgA: Config{ECN: true, CC: func() cc.Algorithm { return cc.NewDCTCP() }},
		cfgB: Config{ECN: true},
	})
	b.Listen()
	// Mark every data packet CE in transit.
	wa.drop = func(s *packet.Segment) bool {
		if s.TCP.PayloadLen > 0 {
			s.ECN = packet.ECNCE
		}
		return false
	}
	a.Connect(-1)
	runFor(loop, 10*sim.Millisecond)
	d := a.States()[0].CC.(*cc.DCTCP)
	if d.Alpha() < 0.5 {
		t.Fatalf("DCTCP alpha = %v under full marking, want high", d.Alpha())
	}
	// cwnd must be pinned low (every window reduced by ~alpha/2).
	if d.Cwnd() > 64 {
		t.Fatalf("cwnd = %v despite persistent marking", d.Cwnd())
	}
}

func TestFINTeardown(t *testing.T) {
	loop, a, b, _, _ := newPair(t, pairOpt{})
	b.Listen()
	a.Connect(10 * 8960)
	a.Close()
	runFor(loop, 100*sim.Millisecond)
	if b.Stats.BytesDelivered != 10*8960 {
		t.Fatalf("delivered %d", b.Stats.BytesDelivered)
	}
	if a.state != stDone {
		t.Fatalf("sender state = %v, want done", a.state)
	}
	if b.state != stCloseWait {
		t.Fatalf("receiver state = %v, want close-wait", b.state)
	}
}

// TestRetransmittedFINIsAFIN: a 200-segment DCTCP transfer ending in Close,
// under twelve loss patterns, several of which lose the FIN or its ACK. Every
// copy of the FIN the sender puts on the wire, first or resent by TLP, RTO or
// fast retransmit, must be a FIN without payload: a FIN resent as one byte of
// data would be delivered to the receiver's application as a byte nobody wrote,
// and the receiver would never see the close.
func TestRetransmittedFINIsAFIN(t *testing.T) {
	const segs, size = 200, 200 * 8960
	type pattern struct {
		name string
		// dropData sees the n-th data segment (1-based, retransmissions
		// counted) and dropFIN the n-th FIN; dropAck the n-th pure ACK from
		// the receiver and, for the k-th ACK of the FIN, k (0 for others).
		dropData func(n int) bool
		dropFIN  func(n int) bool
		dropAck  func(n, k int) bool
	}
	first := func(k int) func(int) bool { return func(n int) bool { return n <= k } }
	every := func(k int) func(int) bool { return func(n int) bool { return n%k == 0 } }
	for _, p := range []pattern{
		{name: "clean"},
		{name: "fin_once", dropFIN: first(1)},
		{name: "fin_twice", dropFIN: first(2)},
		{name: "fin_thrice", dropFIN: first(3)},
		{name: "data_every_13", dropData: every(13)},
		{name: "data_every_13_and_fin", dropData: every(13), dropFIN: first(1)},
		{name: "last_data", dropData: func(n int) bool { return n == segs }},
		{name: "last_data_and_fin", dropData: func(n int) bool { return n == segs }, dropFIN: first(1)},
		{name: "fin_ack", dropAck: func(_, k int) bool { return k == 1 }},
		{name: "fin_and_fin_ack", dropFIN: first(1), dropAck: func(_, k int) bool { return k == 1 }},
		{name: "data_burst", dropData: func(n int) bool { return n > 100 && n <= 110 }},
		{name: "acks_every_5", dropAck: func(n, _ int) bool { return n%5 == 0 }},
	} {
		t.Run(p.name, func(t *testing.T) {
			dctcp := func() cc.Algorithm { return cc.NewDCTCP() }
			loop, a, b, wa, wb := newPair(t, pairOpt{
				cfgA: Config{ECN: true, CC: dctcp}, cfgB: Config{ECN: true, CC: dctcp},
			})
			finSeq := func() uint32 { return a.iss.Uint32() + 1 + size }
			var data, fins, acks, finAcks int
			wa.drop = func(s *packet.Segment) bool {
				h := &s.TCP
				if h.Seq == finSeq() {
					fins++
					if h.Flags&packet.FlagFIN == 0 || h.PayloadLen != 0 {
						t.Errorf("copy %d of the FIN: flags %#x, payload %d; want FIN and no payload",
							fins, h.Flags, h.PayloadLen)
					}
					return p.dropFIN != nil && p.dropFIN(fins)
				}
				if h.PayloadLen > 0 {
					data++
					return p.dropData != nil && p.dropData(data)
				}
				return false
			}
			wb.drop = func(s *packet.Segment) bool {
				if s.TCP.PayloadLen > 0 || s.TCP.Flags&packet.FlagSYN != 0 || p.dropAck == nil {
					return false
				}
				acks++
				k := 0
				if s.TCP.Ack == finSeq()+1 {
					finAcks++
					k = finAcks
				}
				return p.dropAck(acks, k)
			}
			b.Listen()
			a.Connect(size)
			a.Close()
			runFor(loop, 2*sim.Second)
			if b.Stats.BytesDelivered != size {
				t.Errorf("receiver delivered %d bytes, want %d", b.Stats.BytesDelivered, size)
			}
			if a.state != stDone || b.state != stCloseWait {
				t.Errorf("states: sender %v, receiver %v; want done and close-wait", a, b)
			}
			if a.Stats.BytesSent < size || a.Stats.BytesSent%8960 != 0 {
				t.Errorf("sender counted %d bytes sent, a FIN among them", a.Stats.BytesSent)
			}
			if fins == 0 {
				t.Fatal("no FIN was sent")
			}
		})
	}
}

// TestNoTailLossProbeAfterDone: the FIN-ack leaves the sender in stDone with
// nothing outstanding, so no retransmission timer is armed when OnDone runs
// (trySend returns at its state guard before re-arming, so the transition
// stops the timer itself), and a finished sender neither counts nor traces a
// tail-loss probe.
func TestNoTailLossProbeAfterDone(t *testing.T) {
	loop, a, b, _, _ := newPair(t, pairOpt{})
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.CatTCP)
	a.SetTracer(tr, 0)
	b.Listen()
	doneAt, armed := sim.Time(-1), false
	var probes uint64
	a.OnDone = func(now sim.Time) {
		doneAt, probes, armed = now, a.Stats.TLPProbes, a.timer.Active()
	}
	a.Connect(10 * 8960)
	a.Close()
	runFor(loop, 5*sim.Millisecond)
	if doneAt < 0 {
		t.Fatal("transfer did not finish")
	}
	if armed {
		t.Errorf("retransmission timer armed at the FIN-ack (%v) with nothing outstanding", doneAt)
	}
	if a.Stats.TLPProbes != probes || a.tlpInFlight {
		t.Errorf("TLPProbes went %d -> %d after OnDone (tlpInFlight=%v), want no probe on a finished sender",
			probes, a.Stats.TLPProbes, a.tlpInFlight)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var ev trace.Event
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if err := trace.ParseLine(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Name == "tlp" && sim.Time(ev.TS) > doneAt {
			t.Errorf("tlp record at %v, after the flow finished at %v", sim.Time(ev.TS), doneAt)
		}
	}
}

func TestStaleAckIgnored(t *testing.T) {
	loop, a, b, _, _ := newPair(t, pairOpt{})
	b.Listen()
	a.Connect(8960)
	runFor(loop, 50*sim.Millisecond)
	// All data acked: a stale ACK must not disturb state (§4.3 all-TDNs).
	if a.totalPacketsOut() != 0 {
		t.Fatalf("packetsOut = %d", a.totalPacketsOut())
	}
	before := a.Stats
	stale := &packet.Segment{Src: 2, Dst: 1, Proto: packet.ProtoTCP, TCP: packet.TCPHeader{
		SrcPort: 2000, DstPort: 1000, Flags: packet.FlagACK, Ack: a.sndUna.Uint32(), Window: 1 << 20,
	}}
	a.Input(stale)
	if a.Stats.LossMarks != before.LossMarks || a.Stats.Retransmits != before.Retransmits {
		t.Fatal("stale ACK mutated sender state")
	}
}

func TestPipeAccountingInvariant(t *testing.T) {
	loop, a, b, wa, _ := newPair(t, pairOpt{})
	b.Listen()
	i := 0
	wa.drop = func(s *packet.Segment) bool {
		if s.TCP.PayloadLen == 0 {
			return false
		}
		i++
		return i%13 == 0
	}
	a.Connect(200 * 8960)
	check := func() {
		st := a.States()[0]
		if st.PacketsOut < 0 || st.SackedOut < 0 || st.LostOut < 0 || st.RetransOut < 0 {
			t.Fatalf("negative pipe var: %+v", st)
		}
		if st.SackedOut+st.LostOut > st.PacketsOut {
			t.Fatalf("sacked+lost (%d+%d) > packetsOut %d", st.SackedOut, st.LostOut, st.PacketsOut)
		}
		if int(st.PacketsOut) != a.rtx.len() {
			t.Fatalf("packetsOut %d != rtx len %d", st.PacketsOut, a.rtx.len())
		}
	}
	for k := 0; k < 400; k++ {
		runFor(loop, 250*sim.Microsecond)
		check()
	}
	if b.Stats.BytesDelivered != 200*8960 {
		t.Fatalf("delivered %d (retrans %d rto %d)", b.Stats.BytesDelivered, a.Stats.Retransmits, a.Stats.RTOFires)
	}
}

func TestRandomLossEventualDelivery(t *testing.T) {
	// Property-style stress: across several seeds and loss rates, all bytes
	// are delivered exactly once, in order.
	for seed := int64(1); seed <= 5; seed++ {
		loop := sim.NewLoop(seed)
		wa := &wire{loop: loop, delay: 30 * sim.Microsecond}
		wb := &wire{loop: loop, delay: 30 * sim.Microsecond}
		a := NewConn(loop, Config{}, wa.send)
		b := NewConn(loop, Config{}, wb.send)
		a.LocalAddr, a.RemoteAddr, a.LocalPort, a.RemotePort = 1, 2, 1, 2
		b.LocalAddr, b.RemoteAddr, b.LocalPort, b.RemotePort = 2, 1, 2, 1
		wa.dst, wb.dst = b, a
		rng := loop.Rand()
		lossPct := int(seed) * 3 // 3%..15%
		wa.drop = func(s *packet.Segment) bool {
			return s.TCP.PayloadLen > 0 && rng.Intn(100) < lossPct
		}
		wb.drop = func(s *packet.Segment) bool {
			return s.TCP.Flags&packet.FlagACK != 0 && s.TCP.PayloadLen == 0 && rng.Intn(100) < lossPct/2
		}
		b.Listen()
		const total = 150 * 8960
		a.Connect(total)
		loop.RunUntil(sim.Time(5 * sim.Second))
		if b.Stats.BytesDelivered != total {
			t.Fatalf("seed %d: delivered %d, want %d (retrans %d, rto %d)",
				seed, b.Stats.BytesDelivered, total, a.Stats.Retransmits, a.Stats.RTOFires)
		}
	}
}

func TestPacingSpreadsBurst(t *testing.T) {
	loop, a, b, _, _ := newPair(t, pairOpt{cfgA: Config{Pacing: 1.0}})
	b.Listen()
	var gaps []sim.Dur
	var lastTx sim.Time
	orig := a.Out
	a.Out = func(s *packet.Segment) {
		if s.TCP.PayloadLen > 0 {
			if lastTx > 0 {
				gaps = append(gaps, loop.Now().Sub(lastTx))
			}
			lastTx = loop.Now()
		}
		orig(s)
	}
	a.Connect(-1)
	runFor(loop, 3*sim.Millisecond)
	if len(gaps) < 10 {
		t.Fatalf("too few data segments: %d", len(gaps))
	}
	zero := 0
	for _, g := range gaps {
		if g == 0 {
			zero++
		}
	}
	if zero > len(gaps)/2 {
		t.Fatalf("pacing left %d/%d back-to-back transmissions", zero, len(gaps))
	}
}

func TestRTTEstimator(t *testing.T) {
	ps := &PathState{CC: cc.NewReno()}
	ps.ObserveRTT(100*sim.Microsecond, sim.Microsecond, sim.Second)
	if ps.SRTT != 100*sim.Microsecond || ps.RTTVar != 50*sim.Microsecond {
		t.Fatalf("first sample: srtt=%v var=%v", ps.SRTT, ps.RTTVar)
	}
	for i := 0; i < 100; i++ {
		ps.ObserveRTT(100*sim.Microsecond, sim.Microsecond, sim.Second)
	}
	if ps.SRTT != 100*sim.Microsecond {
		t.Fatalf("steady srtt = %v", ps.SRTT)
	}
	if ps.RTTVar > 10*sim.Microsecond {
		t.Fatalf("rttvar did not decay: %v", ps.RTTVar)
	}
	if ps.RTO < sim.Microsecond {
		t.Fatal("RTO below floor")
	}
	ps.ObserveRTT(0, sim.Microsecond, sim.Second) // ignored
	if ps.Samples != 101 {
		t.Fatalf("zero sample counted: %d", ps.Samples)
	}
}

func TestCAStateString(t *testing.T) {
	if CAOpen.String() != "open" || CARecovery.String() != "recovery" ||
		CADisorder.String() != "disorder" || CALoss.String() != "loss" {
		t.Fatal("CAState strings wrong")
	}
	if CAState(9).String() == "" {
		t.Fatal("unknown CAState empty")
	}
}
