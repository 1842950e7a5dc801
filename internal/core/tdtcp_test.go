package core

import (
	"testing"

	"github.com/rdcn-net/tdtcp/internal/cc"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
)

// env is a two-TDN test network: infinite bandwidth, per-TDN one-way delay,
// with explicit TDN switching and notification delivery.
type env struct {
	t      *testing.T
	loop   *sim.Loop
	netTDN int
	delays []sim.Dur
	a, b   *tcp.Conn
	pa, pb *TDTCP
	epoch  uint32
	// dropData, when non-nil, drops matching a->b segments.
	dropData func(*packet.Segment) bool
}

func newEnv(t *testing.T, opts Options, ccf cc.Factory) *env {
	e := &env{
		t:      t,
		loop:   sim.NewLoop(11),
		delays: []sim.Dur{50 * sim.Microsecond, 5 * sim.Microsecond},
	}
	if ccf == nil {
		ccf = func() cc.Algorithm { return cc.NewReno() }
	}
	e.pa = New(2, opts)
	e.pb = New(2, opts)
	cfg := func(p *TDTCP) tcp.Config {
		return tcp.Config{NumTDNs: 2, Policy: p, CC: ccf,
			MinRTO: 500 * sim.Microsecond}
	}
	send := func(dst func() *tcp.Conn, isData bool) func(*packet.Segment) {
		return func(s *packet.Segment) {
			if isData && e.dropData != nil && e.dropData(s) {
				return
			}
			b := s.Serialize(nil)
			d := e.delays[e.netTDN]
			e.loop.After(d, func() {
				var got packet.Segment
				if err := packet.Parse(b, &got); err != nil {
					panic(err)
				}
				dst().Input(&got)
			})
		}
	}
	e.a = tcp.NewConn(e.loop, cfg(e.pa), send(func() *tcp.Conn { return e.b }, true))
	e.b = tcp.NewConn(e.loop, cfg(e.pb), send(func() *tcp.Conn { return e.a }, false))
	e.a.LocalAddr, e.a.RemoteAddr, e.a.LocalPort, e.a.RemotePort = 1, 2, 1, 2
	e.b.LocalAddr, e.b.RemoteAddr, e.b.LocalPort, e.b.RemotePort = 2, 1, 2, 1
	return e
}

// switchTDN flips the fabric and notifies both ends immediately.
func (e *env) switchTDN(tdn int) {
	e.netTDN = tdn
	e.epoch++
	e.a.Notify(tdn, e.epoch)
	e.b.Notify(tdn, e.epoch)
}

func (e *env) establish() {
	e.b.Listen()
	e.a.Connect(0)
	e.loop.RunUntil(e.loop.Now().Add(2 * sim.Millisecond))
	if !e.a.Established() || !e.b.Established() {
		e.t.Fatal("not established")
	}
	if !e.a.TDEnabled() || !e.b.TDEnabled() {
		e.t.Fatal("TD_CAPABLE negotiation failed")
	}
}

func (e *env) runFor(d sim.Dur) { e.loop.RunUntil(e.loop.Now().Add(d)) }

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, 1, 300} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n, Options{})
		}()
	}
}

func TestSwitchAndChangePointer(t *testing.T) {
	e := newEnv(t, Options{}, nil)
	e.establish()
	if _, ok := e.pa.ChangePointer(); ok {
		t.Fatal("change pointer set before any switch")
	}
	e.a.QueueBytes(3 * 8960)
	e.runFor(1 * sim.Millisecond)
	nxt := e.a.SndNxt()
	e.switchTDN(1)
	if e.pa.ActiveTDN() != 1 {
		t.Fatal("active TDN not switched")
	}
	ptr, ok := e.pa.ChangePointer()
	if !ok || ptr != nxt {
		t.Fatalf("change pointer = %d,%v want %d", ptr.Uint32(), ok, nxt.Uint32())
	}
	if e.pa.Stats().Switches != 1 {
		t.Fatalf("switches = %d", e.pa.Stats().Switches)
	}
	// Same-TDN notification is a no-op.
	e.a.Notify(1, 99)
	if e.pa.Stats().Switches != 1 {
		t.Fatal("redundant notify counted as switch")
	}
}

func TestStaleEpochIgnored(t *testing.T) {
	e := newEnv(t, Options{}, nil)
	e.establish()
	e.switchTDN(1)   // epoch 1
	e.a.Notify(0, 1) // stale epoch: must be ignored by Conn
	if e.pa.ActiveTDN() != 1 {
		t.Fatal("stale notification applied")
	}
	e.a.Notify(7, 2) // out-of-range TDN
	if e.pa.ActiveTDN() != 1 {
		t.Fatal("out-of-range TDN applied")
	}
	if e.pa.Stats().StaleNotifies == 0 {
		t.Fatal("out-of-range notify not counted")
	}
}

func TestOnStateSwitchCallback(t *testing.T) {
	e := newEnv(t, Options{}, nil)
	e.establish()
	var from, to int
	calls := 0
	e.a.OnStateSwitch = func(_ sim.Time, f, tn int) { from, to, calls = f, tn, calls+1 }
	e.switchTDN(1)
	if calls != 1 || from != 0 || to != 1 {
		t.Fatalf("callback got from=%d to=%d calls=%d", from, to, calls)
	}
}

func TestPerTDNRTTSeparation(t *testing.T) {
	// Alternate TDNs; each TDN's SRTT must converge to its own path RTT
	// rather than an average (§3.1's motivating example).
	e := newEnv(t, Options{}, nil)
	e.establish()
	for cycle := 0; cycle < 12; cycle++ {
		e.a.QueueBytes(4 * 8960)
		e.runFor(300 * sim.Microsecond)
		e.switchTDN(1 - e.netTDN)
	}
	st := e.a.States()
	if st[0].Samples == 0 || st[1].Samples == 0 {
		t.Fatalf("missing samples: %d / %d", st[0].Samples, st[1].Samples)
	}
	// TDN0 RTT = 100us; TDN1 RTT = 10us.
	if st[0].SRTT < 90*sim.Microsecond || st[0].SRTT > 130*sim.Microsecond {
		t.Fatalf("TDN0 srtt = %v, want ~100us", st[0].SRTT)
	}
	if st[1].SRTT < 8*sim.Microsecond || st[1].SRTT > 30*sim.Microsecond {
		t.Fatalf("TDN1 srtt = %v, want ~10us", st[1].SRTT)
	}
	// Now switch while data is in flight on the slow TDN: the resulting
	// mixed (type-3) samples must be discarded, leaving both estimators at
	// their clean values.
	e.switchTDN(0)
	e.runFor(1 * sim.Millisecond)
	e.a.QueueBytes(4 * 8960)
	e.runFor(10 * sim.Microsecond)
	e.switchTDN(1)
	e.runFor(1 * sim.Millisecond)
	if e.a.Stats.RTTSamplesDropped == 0 {
		t.Fatal("no type-3 samples were dropped despite an in-flight switch")
	}
	if st[0].SRTT < 90*sim.Microsecond || st[0].SRTT > 130*sim.Microsecond {
		t.Fatalf("TDN0 srtt polluted: %v", st[0].SRTT)
	}
	if st[1].SRTT < 8*sim.Microsecond || st[1].SRTT > 30*sim.Microsecond {
		t.Fatalf("TDN1 srtt polluted: %v", st[1].SRTT)
	}
}

func TestCwndCheckpointAcrossSwitch(t *testing.T) {
	// Grow TDN0's window, switch away and back: the window must resume
	// from its checkpoint, not restart (§3.1).
	e := newEnv(t, Options{}, nil)
	e.establish()
	for i := 0; i < 10; i++ {
		e.a.QueueBytes(8 * 8960)
		e.runFor(400 * sim.Microsecond)
	}
	w0 := e.a.States()[0].Cwnd()
	if w0 <= float64(cc.InitialCwnd) {
		t.Fatalf("TDN0 cwnd did not grow: %v", w0)
	}
	e.switchTDN(1)
	e.a.QueueBytes(8 * 8960)
	e.runFor(400 * sim.Microsecond)
	if got := e.a.States()[0].Cwnd(); got != w0 {
		t.Fatalf("inactive TDN0 cwnd changed: %v -> %v", w0, got)
	}
	if got := e.a.States()[1].Cwnd(); got <= float64(cc.InitialCwnd) {
		t.Fatalf("TDN1 cwnd did not grow while active: %v", got)
	}
	e.switchTDN(0)
	if got := e.a.ActiveState().Cwnd(); got != w0 {
		t.Fatalf("restored cwnd = %v, want checkpoint %v", got, w0)
	}
}

// crossTDNScenario drives the Figure 3(a) data-reordering scenario: a batch
// in flight on the slow TDN when the network switches to the fast TDN and a
// second batch overtakes it.
func crossTDNScenario(t *testing.T, opts Options) (*env, int64) {
	e := newEnv(t, opts, nil)
	e.establish()
	// Warm up both TDN estimators and grow cwnd.
	for cycle := 0; cycle < 8; cycle++ {
		e.a.QueueBytes(6 * 8960)
		e.runFor(400 * sim.Microsecond)
		e.switchTDN(1 - e.netTDN)
	}
	e.switchTDN(0) // ensure slow TDN active
	e.runFor(1 * sim.Millisecond)
	base := int64(e.a.Stats.Retransmits)
	_ = base
	// Batch 1 on the slow TDN...
	e.a.QueueBytes(6 * 8960)
	e.runFor(10 * sim.Microsecond) // in flight, not yet delivered (50us path)
	// ...switch to fast TDN, batch 2 overtakes.
	e.switchTDN(1)
	e.a.QueueBytes(6 * 8960)
	e.runFor(3 * sim.Millisecond)
	total := e.b.Stats.BytesDelivered
	return e, total
}

func TestRelaxedReorderingSuppressesSpuriousRetransmits(t *testing.T) {
	e, _ := crossTDNScenario(t, Options{})
	if e.a.Stats.FilteredMarks == 0 {
		t.Fatal("cross-TDN reordering never filtered")
	}
	if e.b.Stats.DupSegsRcvd != 0 {
		t.Fatalf("TDTCP spuriously retransmitted %d segments", e.b.Stats.DupSegsRcvd)
	}
	if e.a.Stats.ReorderEvents == 0 {
		t.Fatal("reordering not even observed — scenario broken")
	}
}

func TestAblationWithoutFilterRetransmitsSpuriously(t *testing.T) {
	e, _ := crossTDNScenario(t, Options{DisableRelaxedReordering: true})
	if e.b.Stats.DupSegsRcvd == 0 {
		t.Fatal("ablated TDTCP should have retransmitted spuriously (scenario too weak)")
	}
}

func TestBothVariantsDeliverEverything(t *testing.T) {
	for _, opts := range []Options{{}, {DisableRelaxedReordering: true}} {
		e, total := crossTDNScenario(t, opts)
		// establish(0 bytes) + 8 warmup*6 + 12 more segments
		want := int64((8*6 + 12) * 8960)
		if total != want {
			t.Fatalf("opts %+v: delivered %d, want %d", opts, total, want)
		}
		_ = e
	}
}

func TestTrueCrossTDNLossStillRecovered(t *testing.T) {
	// Drop the tail segments of the slow-TDN batch for real: despite the
	// reordering filter, RACK-TLP (with the slowest-RTT bound) must recover.
	e := newEnv(t, Options{}, nil)
	e.establish()
	for cycle := 0; cycle < 8; cycle++ {
		e.a.QueueBytes(6 * 8960)
		e.runFor(400 * sim.Microsecond)
		e.switchTDN(1 - e.netTDN)
	}
	e.switchTDN(0)
	e.runFor(1 * sim.Millisecond)
	deliveredBefore := e.b.Stats.BytesDelivered
	dropped := 0
	e.dropData = func(s *packet.Segment) bool {
		if s.TCP.PayloadLen > 0 && dropped < 2 {
			dropped++
			return true
		}
		return false
	}
	e.a.QueueBytes(6 * 8960)
	e.runFor(10 * sim.Microsecond)
	e.dropData = nil
	e.switchTDN(1)
	e.a.QueueBytes(6 * 8960)
	e.runFor(20 * sim.Millisecond)
	want := deliveredBefore + 12*8960
	if e.b.Stats.BytesDelivered != want {
		t.Fatalf("delivered %d, want %d (true loss not recovered; rto=%d tlp=%d)",
			e.b.Stats.BytesDelivered, want, e.a.Stats.RTOFires, e.a.Stats.TLPProbes)
	}
}

func TestRTTTargetClassification(t *testing.T) {
	p := New(2, Options{})
	c := tcp.NewConn(sim.NewLoop(1), tcp.Config{NumTDNs: 2, Policy: p}, func(*packet.Segment) {})
	_ = c
	if idx, ok := p.RTTTarget(0, 0); !ok || idx != 0 {
		t.Fatal("type-1 sample misrouted")
	}
	if idx, ok := p.RTTTarget(1, 1); !ok || idx != 1 {
		t.Fatal("type-2 sample misrouted")
	}
	if _, ok := p.RTTTarget(0, 1); ok {
		t.Fatal("type-3 sample accepted")
	}
	if idx, ok := p.RTTTarget(1, packet.NoTDN); !ok || idx != 1 {
		t.Fatal("untagged ACK sample should be accepted conservatively")
	}
	if _, ok := p.RTTTarget(9, 9); ok {
		t.Fatal("out-of-range data TDN accepted")
	}
	pNoFilter := New(2, Options{DisableRTTFilter: true})
	cn := tcp.NewConn(sim.NewLoop(1), tcp.Config{NumTDNs: 2, Policy: pNoFilter}, func(*packet.Segment) {})
	_ = cn
	if idx, ok := pNoFilter.RTTTarget(0, 1); !ok || idx != 0 {
		t.Fatal("ablated filter should accept mixed samples")
	}
}

func TestPessimisticRTO(t *testing.T) {
	e := newEnv(t, Options{}, nil)
	e.establish()
	for cycle := 0; cycle < 8; cycle++ {
		e.a.QueueBytes(4 * 8960)
		e.runFor(400 * sim.Microsecond)
		e.switchTDN(1 - e.netTDN)
	}
	st := e.a.States()
	if st[0].Samples == 0 || st[1].Samples == 0 {
		t.Fatal("estimators not primed")
	}
	// RTO of a fast-TDN (1) segment must reflect the slow TDN's RTT:
	// ½·10us + ½·100us = 55us (plus variance), i.e. well above TDN1's own
	// srtt-based value would be without the floor.
	rtoFast := e.pa.SegmentRTO(1)
	rtoSlow := e.pa.SegmentRTO(0)
	if rtoFast < e.a.Config().MinRTO {
		t.Fatalf("rto below floor: %v", rtoFast)
	}
	// Both should be clamped equal here due to the large MinRTO; verify the
	// unclamped synthesis by lowering the floor via a direct computation.
	synthFast := st[1].SRTT/2 + st[0].SRTT/2
	if synthFast < 50*sim.Microsecond {
		t.Fatalf("synthesized RTT %v too small — slow TDN ignored", synthFast)
	}
	_ = rtoSlow
	// Ablated: uses own RTO.
	pAbl := New(2, Options{DisablePessimisticRTO: true})
	cAbl := tcp.NewConn(e.loop, tcp.Config{NumTDNs: 2, Policy: pAbl}, func(*packet.Segment) {})
	pAbl.Attach(cAbl)
	if got := pAbl.SegmentRTO(1); got != cAbl.States()[1].RTO {
		t.Fatalf("ablated SegmentRTO = %v, want state RTO %v", got, cAbl.States()[1].RTO)
	}
}

func TestFilterLossRules(t *testing.T) {
	e := newEnv(t, Options{}, nil)
	e.establish()
	e.a.QueueBytes(2 * 8960)
	e.runFor(1 * sim.Millisecond)
	e.switchTDN(1)
	ptr, _ := e.pa.ChangePointer()
	now := e.loop.Now()
	mk := func(seq packet.Seq, tdn uint8, age sim.Dur) *tcp.TxSeg {
		return &tcp.TxSeg{Seq: seq, Len: 8960, TDN: tdn, SentAt: now.Add(-age)}
	}
	// Old-TDN segment below the pointer, triggered by new-TDN ACK: filter.
	if !e.pa.FilterLoss(mk(ptr.Add(-8960), 0, 20*sim.Microsecond), 1) {
		t.Fatal("cross-TDN straggler not filtered")
	}
	// Same-TDN segment: never filtered.
	if e.pa.FilterLoss(mk(ptr.Add(-8960), 1, 20*sim.Microsecond), 1) {
		t.Fatal("same-TDN loss filtered")
	}
	// Above the change pointer: not filtered.
	if e.pa.FilterLoss(mk(ptr.Add(8960), 0, 20*sim.Microsecond), 1) {
		t.Fatal("post-switch segment filtered")
	}
	// Outstanding far longer than the slowest RTT: must not be filtered
	// (RACK-TLP handover).
	if e.pa.FilterLoss(mk(ptr.Add(-8960), 0, 5*sim.Millisecond), 1) {
		t.Fatal("ancient segment still filtered")
	}
}
