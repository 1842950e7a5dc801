package tcp_test

// An external test package: the TDTCP case needs internal/core, which imports
// tcp. Everything here reads connection state through reflection, which may
// look at unexported fields but not name them, which is the point: the walk
// covers whatever fields exist.

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/cc"
	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// lossyLink carries one direction of a pair: 50 µs one way, every seventh
// data segment dropped, every fifth of the rest CE-marked.
type lossyLink struct {
	loop *sim.Loop
	dst  *tcp.Conn
	data int
}

func (l *lossyLink) send(s *packet.Segment) {
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

// diffState walks got and want in step and returns the paths at which they
// differ. It compares what a connection's behaviour can depend on: scalars,
// slice lengths and contents, and what pointers and interfaces lead to, each
// pointer once. Funcs are skipped (bound callbacks and hooks are per
// instance), as are the loop and the pool (shared, not the connection's) and
// slice capacities (storage, not state).
func diffState(got, want any) []string {
	var diffs []string
	seen := map[uintptr]bool{}
	var walk func(path string, g, w reflect.Value)
	walk = func(path string, g, w reflect.Value) {
		if g.Type() != w.Type() {
			diffs = append(diffs, fmt.Sprintf("%s: type %s, want %s", path, g.Type(), w.Type()))
			return
		}
		switch g.Type() {
		case reflect.TypeOf((*sim.Loop)(nil)), reflect.TypeOf((*tcp.Pool)(nil)):
			return
		}
		switch g.Kind() {
		case reflect.Func:
		case reflect.Bool:
			if g.Bool() != w.Bool() {
				diffs = append(diffs, fmt.Sprintf("%s: %v, want %v", path, g.Bool(), w.Bool()))
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			if g.Int() != w.Int() {
				diffs = append(diffs, fmt.Sprintf("%s: %d, want %d", path, g.Int(), w.Int()))
			}
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			if g.Uint() != w.Uint() {
				diffs = append(diffs, fmt.Sprintf("%s: %d, want %d", path, g.Uint(), w.Uint()))
			}
		case reflect.Float32, reflect.Float64:
			if g.Float() != w.Float() {
				diffs = append(diffs, fmt.Sprintf("%s: %v, want %v", path, g.Float(), w.Float()))
			}
		case reflect.String:
			if g.String() != w.String() {
				diffs = append(diffs, fmt.Sprintf("%s: %q, want %q", path, g.String(), w.String()))
			}
		case reflect.Struct:
			for i := 0; i < g.NumField(); i++ {
				walk(path+"."+g.Type().Field(i).Name, g.Field(i), w.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if g.Len() != w.Len() {
				diffs = append(diffs, fmt.Sprintf("%s: length %d, want %d", path, g.Len(), w.Len()))
				return
			}
			for i := 0; i < g.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), g.Index(i), w.Index(i))
			}
		case reflect.Pointer, reflect.Interface:
			if g.IsNil() != w.IsNil() {
				diffs = append(diffs, fmt.Sprintf("%s: nil %v, want nil %v", path, g.IsNil(), w.IsNil()))
				return
			}
			if g.IsNil() {
				return
			}
			if g.Kind() == reflect.Pointer {
				if seen[g.Pointer()] {
					return
				}
				seen[g.Pointer()] = true
			}
			walk(path, g.Elem(), w.Elem())
		default: // maps, channels: a connection has none, and must not grow one unseen
			diffs = append(diffs, fmt.Sprintf("%s: kind %s is not compared", path, g.Kind()))
		}
	}
	walk("conn", reflect.ValueOf(got), reflect.ValueOf(want))
	return diffs
}

// TestReopenEqualsFresh: a connection that carried a lossy transfer, was
// released in the middle of it and reopened once its timers had fired is,
// field for field, what NewConn returns for the same configuration: for plain
// CUBIC, for DCTCP with ECN, and for TDTCP over 8 TDNs with a per-TDN
// algorithm mix. The comparison walks the structs, so a field added later to
// Conn, PathState, a congestion-control algorithm or a policy, and not
// returned to its starting value by init or Reset, fails here.
func TestReopenEqualsFresh(t *testing.T) {
	dctcp := func() cc.Algorithm { return cc.NewDCTCP() }
	for _, tc := range []struct {
		name string
		cfg  func() tcp.Config
	}{
		{"cubic", func() tcp.Config { return tcp.Config{} }},
		{"dctcp", func() tcp.Config { return tcp.Config{ECN: true, CC: dctcp} }},
		{"tdtcp8", func() tcp.Config {
			return tcp.Config{NumTDNs: 8, Policy: core.New(8, core.Options{}), Pacing: 2,
				CCPerState: []cc.Factory{nil, dctcp}}
		}},
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
				c.OnDelivered = func(sim.Time, int64) {}
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

			a.Release()
			b.Release()
			loop.RunUntil(loop.Now().Add(300 * sim.Millisecond)) // past MaxRTO: every timer has fired
			if pool.LiveConns() != made-2 {
				t.Errorf("%d live connections on the pool after the pair's release, want %d", pool.LiveConns(), made-2)
			}
			for c, out := range map[*tcp.Conn]func(*packet.Segment){a: la.send, b: lb.send} {
				if !c.Reopen(out) {
					t.Fatal("Reopen refused a released connection whose timers have fired")
				}
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
					b.Stats.BytesDelivered, 200*8960, a.SndNxt()-a.SndUna(), done)
			}
			for _, c := range []*tcp.Conn{a, b} {
				if err := c.CheckInvariants(); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
