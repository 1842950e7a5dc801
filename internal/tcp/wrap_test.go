package tcp

import (
	"testing"

	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// wrapSeed returns the first loop seed whose first random draw, the one
// Connect takes for the sender's ISS, lies between lo and hi bytes below
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

// TestTransferAcrossSequenceWrap runs a bulk transfer whose sequence numbers
// cross 2^32, with one segment lost just before the wrap. The segments after
// it arrive out of order and are SACKed past the wrap, so the receiver's
// reassembly, the sender's scoreboard walk and the cumulative advance all
// compare values on both sides of it. Every one of those comparisons has to
// be RFC 1982 serial arithmetic: a raw < or > on a wrapped value stalls the
// transfer or corrupts the scoreboard.
func TestTransferAcrossSequenceWrap(t *testing.T) {
	const (
		mss   = 8960
		total = 100 * mss
	)
	seed := wrapSeed(t, 256<<10, 512<<10)
	loop := sim.NewLoop(seed)
	a, b, wa, _ := newPairOn(loop, pairOpt{})
	b.Listen()
	dropped := 0
	wa.drop = func(s *packet.Segment) bool {
		// The segment starting two to three MSS below the wrap, once.
		if d := -s.TCP.Seq; s.TCP.PayloadLen > 0 && dropped == 0 && d > 2*mss && d <= 3*mss {
			dropped++
			return true
		}
		return false
	}
	a.Connect(total)
	if d := -a.iss; d < 256<<10 || d > 512<<10 {
		t.Fatalf("seed %d: ISS %#x is %d bytes below 2^32, want 256-512 kB; Connect no longer takes the loop's first draw", seed, a.iss, d)
	}
	for k := 0; k < 400; k++ {
		runFor(loop, 250*sim.Microsecond)
		for _, c := range []*Conn{a, b} {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d, t=%v: %v", seed, loop.Now(), err)
			}
		}
	}
	if dropped != 1 {
		t.Fatalf("seed %d: dropped %d segments below the wrap, want 1", seed, dropped)
	}
	if b.Stats.BytesDelivered != total {
		t.Fatalf("seed %d: delivered %d, want %d (retransmits %d, RTOs %d)",
			seed, b.Stats.BytesDelivered, total, a.Stats.Retransmits, a.Stats.RTOFires)
	}
	if a.Stats.FastRetransmits == 0 {
		t.Fatalf("seed %d: the loss was not repaired by SACK recovery (RTOs %d)", seed, a.Stats.RTOFires)
	}
	if got := a.sndUna - a.iss; got != total+1 {
		t.Fatalf("seed %d: snd.una is %d past the ISS, want %d", seed, got, total+1)
	}
}
