package mptcp

import (
	"reflect"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/obs"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
)

// TestReopenEqualsFresh: an endpoint pair that carried a lossy transfer across
// TDN switches, with data stranded and reinjected, and was released in the
// middle of it, is after Reopen, field for field and subflow for subflow,
// what New returns for the same configuration (obs.DiffState: funcs, the loop
// and the pools aside). So a field added later to Conn and not returned to its
// starting value by init fails here. The reopened pair then carries a
// transfer to the end.
func TestReopenEqualsFresh(t *testing.T) {
	cfg := Config{}
	e := newEnv(t, cfg)
	data := 0
	e.wires[1].drop = func(s *packet.Segment) bool {
		if s.TCP.PayloadLen > 0 {
			data++
			return data%9 == 0
		}
		return false
	}
	e.rcv.Listen()
	e.snd.Connect(4000 * 8960)
	// Switch TDNs every 150 µs until the sender has reinjected and the
	// receiver holds data beyond a hole in DSN space.
	for i := 1; i <= 6000 && (e.snd.Stats.ReinjectEvents == 0 || len(e.rcv.ranges) == 0); i++ {
		e.runFor(5 * sim.Microsecond)
		if i%30 == 0 {
			e.switchTDN(1 - e.active)
		}
	}
	if e.snd.Stats.ReinjectEvents == 0 || len(e.rcv.ranges) == 0 || e.snd.backlog == 0 || !e.snd.anyOutstanding() {
		t.Fatalf("set-up: %d reinjections, %d receiver ranges, backlog %d: not a lossy transfer caught mid-flight",
			e.snd.Stats.ReinjectEvents, len(e.rcv.ranges), e.snd.backlog)
	}
	diff := func(got, want *Conn) []string {
		return obs.DiffState(got, want, reflect.TypeOf((*sim.Loop)(nil)), reflect.TypeOf((*tcp.Pool)(nil)))
	}
	fresh := func() *Conn { return New(e.loop, cfg, func(*packet.Segment) {}) }
	if n := len(diff(e.snd, fresh())); n < 25 {
		t.Fatalf("set-up: only %d fields of the used sender differ from a new one", n)
	}

	e.snd.Release()
	e.rcv.Release()
	if e.snd.pumpTimer.Active() {
		t.Error("the released sender's scheduler tick is still armed")
	}
	e.loop.Run() // the wires drain into the released pair, which ignores them
	e.snd.Reopen(e.out(&e.snd, e.wires[:2]))
	e.rcv.Reopen(e.out(&e.rcv, e.wires[2:]))
	for _, c := range []*Conn{e.snd, e.rcv} {
		for _, d := range diff(c, fresh()) {
			t.Error(d)
		}
	}

	// And it works: the reopened pair carries a transfer to the end.
	for i := range e.snd.Subflows() {
		s, r := e.snd.Subflows()[i], e.rcv.Subflows()[i]
		s.LocalAddr, s.RemoteAddr, s.LocalPort, s.RemotePort = 1, 2, uint16(1100+i), uint16(2100+i)
		r.LocalAddr, r.RemoteAddr, r.LocalPort, r.RemotePort = 2, 1, uint16(2100+i), uint16(1100+i)
	}
	e.rcv.Listen()
	const total = 200 * 8960
	e.snd.Connect(total)
	for i := 0; i < 100 && e.rcv.DeliveredBytes < total; i++ {
		e.runFor(400 * sim.Microsecond)
		e.switchTDN(1 - e.active)
	}
	if e.rcv.DeliveredBytes != total {
		t.Fatalf("transfer on the reopened pair: delivered %d of %d", e.rcv.DeliveredBytes, total)
	}
}

// TestReopenRequiresRelease: reopening a live endpoint panics, as tcp.Conn's
// Reopen does.
func TestReopenRequiresRelease(t *testing.T) {
	e := newEnv(t, Config{})
	defer func() {
		if recover() == nil {
			t.Error("Reopen of a live endpoint did not panic")
		}
	}()
	e.snd.Reopen(e.out(&e.snd, e.wires[:2]))
}
