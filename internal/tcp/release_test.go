package tcp

import (
	"fmt"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// TestReleaseReturnsEverythingToTheSlab: Release gives back the connection
// row, the path rows, every retransmission-queue entry still outstanding and
// the queue's backing array; the timers it leaves armed fire on released
// state and touch nothing; and the next connection on the slab gets the same
// rows, entries and array back zeroed, and works.
func TestReleaseReturnsEverythingToTheSlab(t *testing.T) {
	slab := NewSlab(2, 2)
	cfg := Config{Slab: slab}
	loop, a, b, wa, wb := newPair(t, pairOpt{cfgA: cfg, cfgB: cfg})
	b.Listen()
	a.Connect(4000 * 8960)
	runFor(loop, 300*sim.Microsecond) // handshake done, first window in flight
	if !a.Established() || a.States()[0].SRTT() == 0 {
		t.Fatalf("set-up: %v", a)
	}
	// From here nothing a sends arrives, so its queue stays full and its
	// retransmission timer armed.
	wa.drop = func(*packet.Segment) bool { return true }
	runFor(loop, 100*sim.Microsecond)
	out := a.rtx.len()
	if out < 2 || !a.timer.Active() {
		t.Fatalf("set-up: %d segments outstanding, timer armed %v; want a full queue and a timer", out, a.timer.Active())
	}
	if c := slab.LiveConns(); c != 2 {
		t.Fatalf("%d connection rows in use before release, want 2", c)
	}
	aIdx, aPaths, aQueue := a.idx, a.pathBase, a.rtx.segs
	out += b.rtx.len()
	free := len(slab.segFree)

	a.Release()
	a.Release() // idempotent
	b.Release()
	if c := slab.LiveConns(); c != 0 {
		t.Errorf("%d connection rows in use after release, want 0", c)
	}
	if got := len(slab.segFree) - free; got != out {
		t.Errorf("%d retransmission-queue entries came back, %d were outstanding", got, out)
	}
	if len(slab.pathFree[1]) != 2 || len(slab.queueFree) != 2 {
		t.Errorf("%d path runs and %d queue arrays came back, want 2 and 2", len(slab.pathFree[1]), len(slab.queueFree))
	}
	for i, seg := range aQueue[:cap(aQueue)] {
		if seg != nil {
			t.Fatalf("released queue array still references an entry at %d", i)
		}
	}

	// The stale retransmission timer, a stale pace wake-up, a late segment
	// and a late notification: no transmission, no counter but SegsRcvd, and
	// not one slab cell changes.
	before, sentA, sentB, statsA, fired := fmt.Sprint(*slab), wa.sent, wb.sent, a.Stats, loop.Fired()
	late := &packet.Segment{Src: 2, Dst: 1, Proto: packet.ProtoTCP, TCP: packet.TCPHeader{
		SrcPort: 2000, DstPort: 1000, Flags: packet.FlagACK, Ack: 1, Window: 1 << 20}}
	a.Input(late)
	a.Notify(0, 9)
	a.paceFn()
	a.KickRecovery()
	runFor(loop, 300*sim.Millisecond) // past MaxRTO
	if loop.Fired() == fired {
		t.Fatal("no stale timer fired")
	}
	statsA.SegsRcvd++
	if wa.sent != sentA || wb.sent != sentB || a.Stats != statsA {
		t.Errorf("a released connection acted: sent %d -> %d and %d -> %d, stats %+v -> %+v",
			sentA, wa.sent, sentB, wb.sent, statsA, a.Stats)
	}
	if after := fmt.Sprint(*slab); after != before {
		t.Errorf("the slab changed after release:\n%s\n%s", before, after)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants on a released connection: %v", err)
	}
	_ = a.String()

	// The next pair takes the released rows (LIFO: b's, then a's) and must
	// find them as a fresh slab would have made them.
	c, d, _, _ := newPairOn(loop, pairOpt{cfgA: cfg, cfgB: cfg})
	if d.idx != aIdx || d.pathBase != aPaths || cap(d.rtx.segs) != cap(aQueue) {
		t.Errorf("second pair got row %d, path %d, queue cap %d; want a's %d, %d, %d",
			d.idx, d.pathBase, cap(d.rtx.segs), aIdx, aPaths, cap(aQueue))
	}
	for _, n := range []*Conn{c, d} {
		st := n.States()[0]
		if n.sndUna() != 0 || n.sndNxt() != 0 || n.rcvNxt() != 0 || n.notifyEpoch() != 0 ||
			st.SRTT() != 0 || st.RTTVar() != 0 || st.Samples() != 0 || st.RTO() != n.cfg.InitialRTO ||
			st.CA() != CAOpen || st.DupAcks() != 0 || st.RecoveryPoint() != 0 ||
			st.PacketsOut() != 0 || st.SackedOut() != 0 || st.LostOut() != 0 || st.RetransOut() != 0 ||
			n.rtx.len() != 0 {
			t.Errorf("recycled rows are not zeroed: %v srtt %v rto %v out %d", n, st.SRTT(), st.RTO(), st.PacketsOut())
		}
	}
	if seg := slab.getTxSeg(); *seg != (TxSeg{}) {
		t.Errorf("recycled queue entry is not zeroed: %+v", *seg)
	} else {
		slab.putTxSeg(seg)
	}
	done := false
	c.OnDone = func(sim.Time) { done = true }
	d.Listen()
	c.Connect(40 * 8960)
	c.Close()
	runFor(loop, 50*sim.Millisecond)
	if !done || d.Stats.BytesDelivered != 40*8960 {
		t.Fatalf("transfer on recycled rows: done %v, delivered %d", done, d.Stats.BytesDelivered)
	}
	for _, n := range []*Conn{c, d} {
		if err := n.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}
