package mptcp

import (
	"testing"

	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// TestTransferAcrossSequenceWrap runs a transfer whose data sequence numbers
// and subflow 0's sequence numbers both cross 2^32 mid-transfer. One segment
// is lost on each side of subflow 0's wrap, and the fabric alternates TDNs,
// so data strands on the inactive subflow and is reinjected with its
// subflow's acknowledgment point on either side of the wrap. Two things must
// hold with RFC 1982 arithmetic and break with a raw comparison:
//   - the receiver's DSN reassembly delivers every byte once (a raw <= in
//     its old-data test discards the first range past the wrap);
//   - a reinjection moves outstanding bytes and never creates them, so
//     Outstanding minus the DSN bytes ever assigned never grows (a raw > in
//     the ledger walk reinjects already-acknowledged bytes, or the same
//     bytes twice).
func TestTransferAcrossSequenceWrap(t *testing.T) {
	const (
		mss   = 8960
		total = 300 * mss
		dsn0  = 1<<32 - 100*mss // the DSN wraps a third of the way in
	)
	seed := wrapSeed(t, 30*mss, 50*mss)
	e := newEnvOn(t, Config{}, sim.NewLoop(seed))
	e.snd.dsnNxt, e.rcv.dsn.Next = packet.SeqOf(dsn0), packet.SeqOf(dsn0)
	dropped := 0
	e.wires[0].drop = func(s *packet.Segment) bool {
		// One data segment two MSS below subflow 0's wrap, one just past it.
		d := -s.TCP.Seq
		if s.TCP.PayloadLen > 0 && (dropped == 0 && d > 2*mss && d <= 3*mss ||
			dropped == 1 && s.TCP.Seq < 1<<31 && s.TCP.Seq >= 2*mss) {
			dropped++
			return true
		}
		return false
	}
	e.rcv.Listen()
	e.snd.Connect(total)
	if d := -e.snd.Subflows()[0].SndNxt().Uint32(); d < 30*mss || d > 50*mss {
		t.Fatalf("seed %d: subflow 0 starts %d bytes below 2^32; Connect no longer takes the loop's first draw", seed, d)
	}
	var switchFn func()
	switchFn = func() {
		e.switchTDN(1 - e.active)
		if e.rcv.DeliveredBytes < total {
			e.loop.After(130*sim.Microsecond, switchFn)
		}
	}
	e.loop.After(130*sim.Microsecond, switchFn)

	// excess is Outstanding minus the DSN bytes ever assigned: ACKs lower
	// it, fresh data leaves it unchanged, and so must a reinjection.
	excess := func() int64 { return e.snd.Outstanding() - int64(e.snd.dsnNxt.Diff(packet.SeqOf(dsn0))) }
	last := excess()
	for e.loop.Now() < sim.Time(200*sim.Millisecond) && e.loop.Step() {
		if x := excess(); x > last {
			t.Fatalf("seed %d, t=%v: outstanding grew by %d bytes beyond the data assigned (reinjections %d)",
				seed, e.loop.Now(), x-last, e.snd.Stats.ReinjectEvents)
		} else {
			last = x
		}
	}
	if dropped != 2 {
		t.Fatalf("seed %d: dropped %d segments around the wrap, want 2", seed, dropped)
	}
	if e.rcv.DeliveredBytes != total {
		t.Fatalf("seed %d: delivered %d, want %d (reinjections %d)", seed, e.rcv.DeliveredBytes, total, e.snd.Stats.ReinjectEvents)
	}
	if e.snd.Stats.ReinjectEvents == 0 {
		t.Fatalf("seed %d: nothing was reinjected", seed)
	}
	if got := e.rcv.dsn.Next.Diff(packet.SeqOf(dsn0)); got != total {
		t.Fatalf("seed %d: the DSN advanced %d, want %d", seed, got, total)
	}
}

// wrapSeed returns the first loop seed whose first random draw, the one
// subflow 0's Connect takes for its ISS, lies between lo and hi bytes below
// 2^32.
func wrapSeed(t *testing.T, lo, hi uint32) int64 {
	t.Helper()
	for seed := int64(1); seed < 1<<22; seed++ {
		if d := -sim.NewLoop(seed).Rand().Uint32(); d >= lo && d <= hi {
			return seed
		}
	}
	t.Fatal("no seed puts the ISS in the window")
	return 0
}
