package tcp

import (
	"fmt"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// TestReleaseReturnsEverythingToThePool: Release gives back every
// retransmission-queue entry still outstanding and takes its armed timers off
// the loop; the queue's backing array stays with the connection, cleared so
// it references no entry; a released connection ignores what still reaches
// it; and Reopen takes the same array back, empty, with the pool's entries
// recycled zeroed, and works.
func TestReleaseReturnsEverythingToThePool(t *testing.T) {
	pool := new(Pool)
	cfg := Config{Pool: pool}
	loop, a, b, wa, wb := newPair(t, pairOpt{cfgA: cfg, cfgB: cfg})
	b.Listen()
	a.Connect(4000 * 8960)
	runFor(loop, 300*sim.Microsecond) // handshake done, first window in flight
	if !a.Established() || a.States()[0].SRTT == 0 {
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
	if c := pool.LiveConns(); c != 2 {
		t.Fatalf("%d live connections before release, want 2", c)
	}
	aQueue := a.rtx.segs
	out += b.rtx.len()
	free := len(pool.segFree)
	live, armed := loop.Live(), 0
	for _, tm := range []sim.Timer{a.timer, a.paceTimer, b.timer, b.paceTimer} {
		if tm.Active() {
			armed++
		}
	}

	a.Release()
	a.Release() // idempotent
	b.Release()
	if got := loop.Live(); got != live-armed {
		t.Errorf("%d events pending after release, want %d: the %d armed timers are not all stopped", got, live-armed, armed)
	}
	if c := pool.LiveConns(); c != 0 {
		t.Errorf("%d live connections after release, want 0", c)
	}
	if got := len(pool.segFree) - free; got != out {
		t.Errorf("%d retransmission-queue entries came back, %d were outstanding", got, out)
	}
	if a.rtx.len() != 0 || &a.rtx.segs[:1][0] != &aQueue[:1][0] {
		t.Errorf("released queue holds %d entries, own array kept %v; want 0, true",
			a.rtx.len(), &a.rtx.segs[:1][0] == &aQueue[:1][0])
	}
	for i, seg := range aQueue[:cap(aQueue)] {
		if seg != nil {
			t.Fatalf("released queue array still references an entry at %d", i)
		}
	}

	// A late segment, a late notification, a pace wake-up and a recovery
	// kick: no transmission, no counter but SegsRcvd, and not one byte of the
	// pool changes.
	before, sentA, sentB, statsA := fmt.Sprint(*pool), wa.sent, wb.sent, a.Stats
	late := &packet.Segment{Src: 2, Dst: 1, Proto: packet.ProtoTCP, TCP: packet.TCPHeader{
		SrcPort: 2000, DstPort: 1000, Flags: packet.FlagACK, Ack: 1, Window: 1 << 20}}
	a.Input(late)
	a.Notify(0, 9)
	a.paceFn()
	a.KickRecovery()
	runFor(loop, 300*sim.Millisecond) // past MaxRTO
	statsA.SegsRcvd++
	if wa.sent != sentA || wb.sent != sentB || a.Stats != statsA {
		t.Errorf("a released connection acted: sent %d -> %d and %d -> %d, stats %+v -> %+v",
			sentA, wa.sent, sentB, wb.sent, statsA, a.Stats)
	}
	if after := fmt.Sprint(*pool); after != before {
		t.Errorf("the pool changed after release:\n%s\n%s", before, after)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants on a released connection: %v", err)
	}
	_ = a.String()

	// Reopened, the pair starts on the arrays it kept, empty, and a recycled
	// entry is as a fresh one.
	wa.drop = nil
	c, d := a, b
	c.Reopen(wa.send)
	d.Reopen(wb.send)
	c.LocalAddr, c.RemoteAddr, c.LocalPort, c.RemotePort = 1, 2, 1001, 2001
	d.LocalAddr, d.RemoteAddr, d.LocalPort, d.RemotePort = 2, 1, 2001, 1001
	if reused := &c.rtx.segs[:1][0] == &aQueue[:1][0]; !reused || c.rtx.len() != 0 || d.rtx.len() != 0 {
		t.Errorf("reopened queues hold %d and %d entries, a's array reused %v; want 0, 0, true",
			c.rtx.len(), d.rtx.len(), reused)
	}
	if c := pool.LiveConns(); c != 2 {
		t.Errorf("%d live connections with the pair reopened, want 2", c)
	}
	if seg := pool.getTxSeg(); *seg != (TxSeg{}) {
		t.Errorf("recycled queue entry is not zeroed: %+v", *seg)
	} else {
		pool.putTxSeg(seg)
	}
	done := false
	c.OnDone = func(sim.Time) { done = true }
	d.Listen()
	c.Connect(40 * 8960)
	c.Close()
	runFor(loop, 50*sim.Millisecond)
	if !done || d.Stats.BytesDelivered != 40*8960 {
		t.Fatalf("transfer on reopened storage: done %v, delivered %d", done, d.Stats.BytesDelivered)
	}
	for _, n := range []*Conn{c, d} {
		if err := n.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// TestReopenRequiresRelease: Reopen on a connection that was never released,
// or on one carrying data, panics and leaves it as it was: its outstanding
// entries stay queued and the pool counts it live once.
func TestReopenRequiresRelease(t *testing.T) {
	pool := new(Pool)
	cfg := Config{Pool: pool}
	loop, a, b, _, _ := newPair(t, pairOpt{cfgA: cfg, cfgB: cfg})
	reopen := func(what string, c *Conn) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Reopen of a %s connection did not panic", what)
			}
		}()
		c.Reopen(c.Out)
	}
	reopen("new", b)
	b.Listen()
	a.Connect(4000 * 8960)
	runFor(loop, 300*sim.Microsecond)
	out := a.rtx.len()
	if !a.Established() || out == 0 {
		t.Fatalf("set-up: %v with %d segments outstanding", a, out)
	}
	reopen("live", a)
	if a.rtx.len() != out || !a.Established() {
		t.Errorf("after the refused Reopen: %v with %d segments outstanding, want %d", a, a.rtx.len(), out)
	}
	if n := pool.LiveConns(); n != 2 {
		t.Errorf("%d live connections after the refused Reopens, want 2", n)
	}
	a.Release()
	a.Reopen(a.Out)
	if n := pool.LiveConns(); n != 2 {
		t.Errorf("%d live connections after a released connection's Reopen, want 2", n)
	}
}
