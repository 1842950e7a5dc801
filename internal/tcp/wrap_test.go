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

// TestTransferAcrossSequenceWrap drives the sender's and the receiver's
// sequence-space comparisons across 2^32. Every one of them has to be RFC 1982
// serial arithmetic: a raw < or > on a wrapped value stalls the transfer or
// corrupts the scoreboard.
func TestTransferAcrossSequenceWrap(t *testing.T) {
	const mss = 8960
	// A bulk transfer whose sequence numbers cross 2^32, with one segment
	// lost just before the wrap. The segments after it arrive out of order
	// and are SACKed past the wrap, so the receiver's reassembly, the
	// sender's scoreboard walk and the cumulative advance all compare values
	// on both sides of it.
	t.Run("sack_recovery", func(t *testing.T) {
		const total = 100 * mss
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
		if d := -a.iss.Uint32(); d < 256<<10 || d > 512<<10 {
			t.Fatalf("seed %d: ISS %#x is %d bytes below 2^32, want 256-512 kB; Connect no longer takes the loop's first draw", seed, a.iss.Uint32(), d)
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
		if got := a.sndUna.Diff(a.iss); got != total+1 {
			t.Fatalf("seed %d: snd.una is %d past the ISS, want %d", seed, got, total+1)
		}
	})
	// RACK's tie-break (RFC 8985 §6.2): of two segments sent at the same
	// instant, the one ending later in sequence space is the most recently
	// sent, in either delivery order, even when only it ends past 2^32.
	t.Run("rack_tiebreak", func(t *testing.T) {
		c := NewConn(sim.NewLoop(1), Config{}, func(*packet.Segment) {})
		at := sim.Time(10 * sim.Microsecond)
		below := &TxSeg{Seq: packet.SeqOf(1<<32 - mss), Len: mss / 2, SentAt: at}
		across := &TxSeg{Seq: packet.SeqOf(1<<32 - mss/2), Len: mss, SentAt: at}
		for _, order := range [][]*TxSeg{{below, across}, {across, below}} {
			c.rackXmit, c.rackEndSeq = 0, packet.Seq{}
			for _, s := range order {
				c.rackAdvance(s)
			}
			if c.rackXmit != at || c.rackEndSeq != across.End() {
				t.Errorf("delivered ending at %#x then %#x: RACK end %#x at %v, want %#x at %v",
					order[0].End().Uint32(), order[1].End().Uint32(), c.rackEndSeq.Uint32(), c.rackXmit, across.End().Uint32(), at)
			}
		}
	})
}
