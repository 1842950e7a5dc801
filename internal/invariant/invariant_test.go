package invariant

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// run drives a bare network (schedule transitions, notifications) for 1 ms
// with a checker configured by prep, and returns the checker.
func run(t *testing.T, prep func(*sim.Loop, *Checker)) *Checker {
	t.Helper()
	loop := sim.NewLoop(1)
	net, err := rdcn.New(loop, rdcn.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := New(loop)
	prep(loop, c)
	c.WatchNetwork(net)
	end := sim.Time(1 * sim.Millisecond)
	net.Start(end)
	loop.RunUntil(end)
	return c
}

func TestCheckerSweepsEveryEvent(t *testing.T) {
	c := run(t, func(*sim.Loop, *Checker) {})
	if c.Checks() == 0 {
		t.Fatal("checker never swept")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("healthy network reported violation: %v", err)
	}
	if len(c.Violations()) != 0 {
		t.Fatalf("violations recorded: %v", c.Violations())
	}
}

func TestCheckerEveryThrottles(t *testing.T) {
	full := run(t, func(*sim.Loop, *Checker) {})
	quarter := run(t, func(_ *sim.Loop, c *Checker) { c.Every = 4 })
	if quarter.Checks() == 0 {
		t.Fatal("throttled checker never swept")
	}
	if 4*quarter.Checks() > full.Checks()+4 {
		t.Fatalf("Every=4 swept %d times vs %d unthrottled", quarter.Checks(), full.Checks())
	}
}

func TestCheckerChainsExistingPostEvent(t *testing.T) {
	prior := 0
	c := run(t, func(loop *sim.Loop, _ *Checker) {
		// Installed before New in run()? No — prep runs after New, so install
		// a second hook the same way a second subsystem would and verify the
		// checker's own hook was not clobbered either way.
		prev := loop.PostEvent
		loop.PostEvent = func() {
			if prev != nil {
				prev()
			}
			prior++
		}
	})
	if prior == 0 {
		t.Fatal("chained PostEvent hook never ran")
	}
	if c.Checks() == 0 {
		t.Fatal("checker hook was clobbered by chaining")
	}
}

// connPair wires two connections back to back over a 50 us link on loop and
// starts an unbounded transfer from the first to the second.
func connPair(loop *sim.Loop) (a, b *tcp.Conn) {
	link := func(dst **tcp.Conn) func(*packet.Segment) {
		return func(s *packet.Segment) {
			held := s.Clone() // the Out contract: s is reused after the call
			loop.After(50*sim.Microsecond, func() { (*dst).Input(held) })
		}
	}
	a = tcp.NewConn(loop, tcp.Config{}, link(&b))
	b = tcp.NewConn(loop, tcp.Config{}, link(&a))
	a.LocalAddr, a.RemoteAddr, a.LocalPort, a.RemotePort = 1, 2, 1000, 2000
	b.LocalAddr, b.RemoteAddr, b.LocalPort, b.RemotePort = 2, 1, 2000, 1000
	b.Listen()
	a.Connect(-1)
	return a, b
}

// TestViolationIsReportedOnceWithContext corrupts a watched connection in the
// middle of a transfer. The checker must catch it at the very next event and
// say where: one Violation naming the site and the broken rule, the metric
// bumped, a trace record labelled with the flow, the flight ring dumped and
// frozen as it stood, Err set — and, the corruption persisting, nothing more:
// the site is latched out while the other sites are still checked.
func TestViolationIsReportedOnceWithContext(t *testing.T) {
	loop := sim.NewLoop(1)
	flight := trace.NewFlight(16, trace.DefaultFlightCats)
	var jsonl, dump bytes.Buffer
	tr := trace.New(&jsonl, trace.CatFault).WithFlight(flight)
	reg := trace.NewRegistry()

	c := New(loop)
	c.SetTracer(tr)
	c.SetMetrics(reg)
	c.SetFlight(flight, &dump)
	a, b := connPair(loop)
	c.WatchConn(a, 7)
	c.WatchConn(b, 8)
	sweeps := uint64(0)
	c.WatchFunc("sweep-count", -1, func() error { sweeps++; return nil })

	loop.RunUntil(sim.Time(400 * sim.Microsecond))
	if err := c.Err(); err != nil || c.FlightSnapshot() != nil || a.States()[0].PacketsOut == 0 {
		t.Fatalf("set-up: err %v, snapshot %v, %d packets out; want a clean transfer in flight",
			err, c.FlightSnapshot(), a.States()[0].PacketsOut)
	}
	tr.Emit(trace.CatTDN, int64(loop.Now()), "before", -1, 0, 0, 0, "")
	a.States()[0].PacketsOut++ // stays one too many whatever the transfer does next
	corruptedAt := loop.Now()
	for len(c.Violations()) == 0 && loop.Now() < sim.Time(sim.Millisecond) { // to the first event after the write
		loop.RunUntil(loop.Now().Add(sim.Microsecond))
	}

	vs := c.Violations()
	if len(vs) != 1 {
		t.Fatalf("%d violations, want 1: %v", len(vs), vs)
	}
	v := vs[0]
	if v.Site != "conn[7]" || v.At <= corruptedAt || !strings.Contains(v.Err.Error(), "pipe counters") {
		t.Errorf("violation %v; want site conn[7], after %v, naming the pipe counters", v, corruptedAt)
	}
	if got := v.String(); !strings.Contains(got, "conn[7]") || !strings.Contains(got, v.Err.Error()) {
		t.Errorf("Violation.String() = %q", got)
	}
	if err := c.Err(); err == nil || !errors.Is(err, v.Err) || !strings.Contains(err.Error(), "conn[7]") {
		t.Errorf("Err() = %v, want one wrapping %v and naming conn[7]", err, v.Err)
	}
	if n := reg.Counter("invariant.violations"); n != 1 {
		t.Errorf("invariant.violations = %d, want 1", n)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var rec trace.Event
	if lines := bytes.Split(bytes.TrimSpace(jsonl.Bytes()), []byte("\n")); len(lines) != 1 {
		t.Errorf("%d trace records, want 1:\n%s", len(lines), jsonl.Bytes())
	} else if err := trace.ParseLine(lines[0], &rec); err != nil || rec.Name != "invariant_violation" ||
		rec.Cat != "fault" || rec.Flow != 7 || rec.TS != int64(v.At) || rec.S != v.Err.Error() {
		t.Errorf("trace record %+v (%v); want invariant_violation for flow 7 at %d", rec, err, int64(v.At))
	}

	// The post-mortem view: the ring as it stood at the violation, dumped to
	// the writer and kept, however far the run goes on.
	snap := c.FlightSnapshot()
	if len(snap) != 2 || snap[0].Name != "before" || snap[1].Name != "invariant_violation" {
		t.Fatalf("flight snapshot %+v; want the marker and the violation record", snap)
	}
	banner, body, _ := strings.Cut(dump.String(), "\n")
	if !strings.Contains(banner, "invariant violation, conn[7] at "+v.At.String()) || !strings.Contains(banner, "last 2 events") ||
		strings.Count(body, "\n") != 2 || !strings.Contains(body, `"name":"invariant_violation"`) {
		t.Errorf("flight dump:\n%s", dump.String())
	}

	// The corruption persists; the latch holds.
	dumped, checks, swept := dump.Len(), c.Checks(), sweeps
	tr.Emit(trace.CatTDN, int64(loop.Now()), "after", -1, 0, 0, 0, "")
	loop.RunUntil(loop.Now().Add(200 * sim.Microsecond))
	if c.Checks() == checks || sweeps-swept != c.Checks()-checks {
		t.Fatalf("%d sweeps and %d calls of the watched func after the violation; want equal and > 0",
			c.Checks()-checks, sweeps-swept)
	}
	if a.CheckInvariants() == nil {
		t.Fatal("the corruption healed itself: the latch was not exercised")
	}
	if len(c.Violations()) != 1 || reg.Counter("invariant.violations") != 1 || dump.Len() != dumped ||
		flight.Len() != 3 || len(c.FlightSnapshot()) != 2 {
		t.Errorf("after %d more sweeps: %d violations, metric %d, dump grew %d bytes, ring %d, snapshot %d; want 1, 1, 0, 3, 2",
			c.Checks()-checks, len(c.Violations()), reg.Counter("invariant.violations"), dump.Len()-dumped,
			flight.Len(), len(c.FlightSnapshot()))
	}
}

// TestWatchFuncViolationLatches: a failing WatchFunc is a violation at its own
// site, reported once, and the func is not called again.
func TestWatchFuncViolationLatches(t *testing.T) {
	calls := 0
	broken := errors.New("budget exceeded")
	c := run(t, func(_ *sim.Loop, c *Checker) {
		c.WatchFunc("budget", 3, func() error {
			if calls++; calls >= 5 {
				return broken
			}
			return nil
		})
	})
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Site != "budget" || vs[0].Err != broken {
		t.Fatalf("violations %v, want one at site budget", vs)
	}
	if calls != 5 || c.Checks() <= 5 {
		t.Errorf("func called %d times over %d sweeps, want 5 and then latched out", calls, c.Checks())
	}
	if c.FlightSnapshot() != nil {
		t.Error("a flight snapshot without a flight recorder")
	}
}
