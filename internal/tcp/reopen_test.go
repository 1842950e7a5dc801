package tcp_test

// An external test package: the TDTCP case needs internal/core, which imports
// tcp. Everything here reads connection state through reflection
// (obs.DiffState), which may look at unexported fields but not name them,
// which is the point: the walk covers whatever fields exist.

import (
	"reflect"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/cc"
	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/obs"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// lossyLink carries one direction of a pair: 50 µs one way, every seventh
// data segment dropped, every fifth of the rest CE-marked. A cut link drops
// everything.
type lossyLink struct {
	loop *sim.Loop
	dst  *tcp.Conn
	data int
	cut  bool
}

func (l *lossyLink) send(s *packet.Segment) {
	if l.cut {
		return
	}
	if s.TCP.PayloadLen > 0 {
		l.data++
		if l.data%7 == 0 {
			return
		}
		if l.data%5 == 0 && s.ECN == packet.ECNECT0 {
			s.ECN = packet.ECNCE
		}
	}
	wire := s.Serialize(nil)
	l.loop.After(50*sim.Microsecond, func() {
		var got packet.Segment
		if err := packet.Parse(wire, &got); err != nil {
			panic(err)
		}
		l.dst.Input(&got)
	})
}

// diffState lists the paths at which two connections differ (obs.DiffState),
// the loop and the pool, which they share, aside.
func diffState(got, want *tcp.Conn) []string {
	return obs.DiffState(got, want, reflect.TypeOf((*sim.Loop)(nil)), reflect.TypeOf((*tcp.Pool)(nil)))
}

// TestReopenEqualsFresh: a connection that carried a lossy transfer, was
// released in the middle of it and reopened is, field for field, what NewConn
// returns for the same configuration: for plain CUBIC, for DCTCP with ECN,
// for TDTCP over 8 TDNs with a per-TDN algorithm mix, and for CUBIC released
// with a backed-off retransmission timer still pending and reopened at once. The comparison walks the structs, so a field added later to
// Conn, PathState, a congestion-control algorithm or a policy, and not
// returned to its starting value by init or Reset, fails here.
func TestReopenEqualsFresh(t *testing.T) {
	dctcp := func() cc.Algorithm { return cc.NewDCTCP() }
	for _, tc := range []struct {
		name       string
		cfg        func() tcp.Config
		rtoPending bool
	}{
		{"cubic", func() tcp.Config { return tcp.Config{} }, false},
		{"dctcp", func() tcp.Config { return tcp.Config{ECN: true, CC: dctcp} }, false},
		{"tdtcp8", func() tcp.Config {
			return tcp.Config{NumTDNs: 8, Policy: core.New(8, core.Options{}), Pacing: 2,
				CCPerState: []cc.Factory{nil, dctcp}}
		}, false},
		{"cubic_rto_pending", func() tcp.Config { return tcp.Config{} }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop := sim.NewLoop(3)
			pool := new(tcp.Pool)
			cfg := func() tcp.Config {
				c := tc.cfg()
				c.Pool = pool
				return c
			}
			la, lb := &lossyLink{loop: loop}, &lossyLink{loop: loop}
			a, b := tcp.NewConn(loop, cfg(), la.send), tcp.NewConn(loop, cfg(), lb.send)
			la.dst, lb.dst = b, a
			a.LocalAddr, a.RemoteAddr, a.LocalPort, a.RemotePort = 1, 2, 1000, 2000
			b.LocalAddr, b.RemoteAddr, b.LocalPort, b.RemotePort = 2, 1, 2000, 1000
			var sink trace.Tracer
			hists := []*trace.Histogram{trace.NewRegistry().Hist("rtt")}
			for _, c := range []*tcp.Conn{a, b} {
				c.SetTracer(&sink, 7)
				c.RTTHists = hists
				c.OnDone = func(sim.Time) {}
			}
			b.Listen()
			a.Connect(4000 * 8960)
			// 8 ms of transfer, the TDN changing under it every 300 µs.
			for i := 1; i <= 27; i++ {
				loop.RunUntil(loop.Now().Add(300 * sim.Microsecond))
				a.Notify(i%8, uint32(i))
				b.Notify(i%8, uint32(i))
			}
			// And on until the receiver is holding data beyond a hole.
			for i := 0; len(b.Ranges()) == 0 && i < 1000; i++ {
				loop.RunUntil(loop.Now().Add(5 * sim.Microsecond))
			}
			if a.Stats.Retransmits == 0 || a.Stats.RTTSamples == 0 || b.Stats.BytesDelivered == 0 || len(b.Ranges()) == 0 {
				t.Fatalf("set-up: sender %+v, receiver %+v with %d ranges: not a lossy transfer caught mid-flight",
					a.Stats, b.Stats, len(b.Ranges()))
			}
			made := 2
			fresh := func() *tcp.Conn {
				made++
				return tcp.NewConn(loop, cfg(), la.send)
			}
			if n := len(diffState(a, fresh())); n < 25 {
				t.Fatalf("set-up: only %d fields of the used sender differ from a new one", n)
			}

			if tc.rtoPending {
				// Total loss until the retransmission timer has backed off.
				la.cut, lb.cut = true, true
				loop.RunUntil(loop.Now().Add(150 * sim.Millisecond))
				if a.Stats.RTOFires < 2 || loop.Live() == 0 {
					t.Fatalf("set-up: %d RTO fires, %d events pending; want a backed-off timer", a.Stats.RTOFires, loop.Live())
				}
			}
			a.Release()
			b.Release()
			if tc.rtoPending {
				if n := loop.Live(); n != 0 {
					t.Fatalf("%d events pending after the pair's release, want 0", n)
				}
				la.cut, lb.cut = false, false
			} else {
				loop.RunUntil(loop.Now().Add(300 * sim.Millisecond)) // past MaxRTO: the links are drained
			}
			if pool.LiveConns() != made-2 {
				t.Errorf("%d live connections on the pool after the pair's release, want %d", pool.LiveConns(), made-2)
			}
			for c, out := range map[*tcp.Conn]func(*packet.Segment){a: la.send, b: lb.send} {
				c.Reopen(out)
				for _, d := range diffState(c, fresh()) {
					t.Error(d)
				}
			}
			if pool.LiveConns() != made {
				t.Errorf("%d live connections on the pool with the pair reopened, want %d", pool.LiveConns(), made)
			}

			// And it works: the reopened pair carries a transfer to the end.
			a.LocalAddr, a.RemoteAddr, a.LocalPort, a.RemotePort = 1, 2, 1001, 2001
			b.LocalAddr, b.RemoteAddr, b.LocalPort, b.RemotePort = 2, 1, 2001, 1001
			b.Listen()
			a.Connect(200 * 8960)
			a.Close()
			done := false
			a.OnDone = func(sim.Time) { done = true }
			loop.RunUntil(loop.Now().Add(300 * sim.Millisecond))
			if b.Stats.BytesDelivered != 200*8960 || a.SndUna() != a.SndNxt() || !done {
				t.Fatalf("transfer on the reopened pair: delivered %d of %d, %d sequence numbers unacknowledged, FIN acknowledged %v",
					b.Stats.BytesDelivered, 200*8960, a.SndNxt().Diff(a.SndUna()), done)
			}
			for _, c := range []*tcp.Conn{a, b} {
				if err := c.CheckInvariants(); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
