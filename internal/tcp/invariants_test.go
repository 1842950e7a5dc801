package tcp

import (
	"strings"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// midTransferPair returns a sender with several segments outstanding, one of
// them SACKed, and a receiver holding two out-of-order ranges: the fifth and
// seventh data segments were lost on their first transmission and neither
// repair has arrived yet.
func midTransferPair(t *testing.T) (a, b *Conn) {
	t.Helper()
	loop, a, b, wa, _ := newPair(t, pairOpt{})
	var dropped [2]bool
	wa.drop = func(s *packet.Segment) bool {
		for i, off := range [...]uint32{4 * 8960, 6 * 8960} {
			if s.TCP.PayloadLen > 0 && a.RelSeq(packet.SeqOf(s.TCP.Seq)) == off && !dropped[i] {
				dropped[i] = true
				return true
			}
		}
		return false
	}
	b.Listen()
	a.Connect(4000 * 8960)
	for i := 0; len(b.Ranges()) < 2 || a.States()[0].SackedOut == 0; i++ {
		if i == 1000 {
			t.Fatalf("set-up: receiver holds %d ranges, sender %d SACKed entries", len(b.Ranges()), a.States()[0].SackedOut)
		}
		runFor(loop, 5*sim.Microsecond)
	}
	if a.rtx.len() < 3 {
		t.Fatalf("set-up: %d segments outstanding, want at least 3", a.rtx.len())
	}
	return a, b
}

// TestCheckInvariantsNamesTheBrokenRule: every rule of CheckInvariants fails
// when, and only when, the state it guards is corrupted. Each row writes one
// field of a live mid-transfer pair and expects the error naming that rule.
func TestCheckInvariantsNamesTheBrokenRule(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(a, b *Conn)
		want    string // "" = no violation
	}{
		{"uncorrupted", func(a, b *Conn) {}, ""},
		{"packetsOut off by one", func(a, b *Conn) { a.states[0].PacketsOut++ }, "pipe counters"},
		{"sackedOut off by one", func(a, b *Conn) { a.states[0].SackedOut-- }, "pipe counters"},
		{"lostOut off by one", func(a, b *Conn) { a.states[0].LostOut++ }, "pipe counters"},
		{"retransOut off by one", func(a, b *Conn) { a.states[0].RetransOut++ }, "pipe counters"},
		{"negative counter", func(a, b *Conn) { a.states[0].RetransOut = -1 }, "negative pipe counter"},
		{"sndUna past sndNxt", func(a, b *Conn) { a.sndUna = a.sndNxt.Add(1) }, "beyond snd_nxt"},
		{"sndUna past the head entry", func(a, b *Conn) { a.sndUna = a.rtx.at(0).End() }, "outside head segment"},
		{"backoff 17", func(a, b *Conn) { a.backoff = 17 }, "backoff 17 beyond saturation"},
		{"entry SACKed and lost", func(a, b *Conn) { a.rtx.at(1).Sacked, a.rtx.at(1).Lost = true, true }, "both SACKed and lost"},
		{"zero-length entry", func(a, b *Conn) { a.rtx.at(1).Len = 0 }, "has length 0"},
		{"unknown TDN tag", func(a, b *Conn) { a.rtx.at(1).TDN = 9 }, "unknown TDN 9"},
		{"two entries swapped", func(a, b *Conn) {
			q := a.rtx.segs[a.rtx.head:]
			q[0], q[1] = q[1], q[0]
		}, "out of order"},
		{"tail short of sndNxt", func(a, b *Conn) { a.sndNxt = a.sndNxt.Add(1) }, "tail segment ends"},
		{"range at rcvNxt", func(a, b *Conn) { b.Ranges()[0].Start = b.rcv.Next }, "at or below rcv_nxt"},
		{"empty range", func(a, b *Conn) { b.Ranges()[0].End = b.Ranges()[0].Start }, "is empty"},
		{"overlapping ranges", func(a, b *Conn) { b.Ranges()[1].Start = b.Ranges()[0].End.Add(-1) }, "overlap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := midTransferPair(t)
			tc.corrupt(a, b)
			err := a.CheckInvariants()
			if err == nil {
				err = b.CheckInvariants()
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("live pair: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("got %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestCheckInvariantsDoesNotAllocate: the checker runs after every simulation
// event of a checked run, so on a consistent connection — here both ends of a
// transfer caught with segments outstanding, SACKed and out of order — it
// must cost no allocation.
func TestCheckInvariantsDoesNotAllocate(t *testing.T) {
	a, b := midTransferPair(t)
	for _, c := range []*Conn{a, b} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("CheckInvariants on %v costs %v allocations, want 0", c, allocs)
		}
	}
}

// manyStates is SinglePath with n path states: more than CheckInvariants
// tallies on the stack.
type manyStates struct {
	SinglePath
	n int
}

func (p *manyStates) NumStates() int { return p.n }

// TestCheckInvariantsBeyondTheStackTally: past 32 path states the recount
// moves to the heap and still checks every state.
func TestCheckInvariantsBeyondTheStackTally(t *testing.T) {
	c := NewConn(sim.NewLoop(1), Config{Policy: &manyStates{n: 40}}, func(*packet.Segment) {})
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.states[39].LostOut++
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "TDN 39 pipe counters") {
		t.Fatalf("got %v, want the pipe-counter error for TDN 39", err)
	}
}
