package tcp

import (
	"testing"

	"github.com/rdcn-net/tdtcp/internal/cc"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// circuitPair is an established pair whose sender runs reTCP behind the
// Circuit policy with reaction delay react.
func circuitPair(t *testing.T, react sim.Dur) (loop *sim.Loop, a, b *Conn, wa, wb *wire) {
	t.Helper()
	retcp, err := cc.NewFactory("retcp")
	if err != nil {
		t.Fatal(err)
	}
	loop, a, b, wa, wb = newPair(t, pairOpt{cfgA: Config{CC: retcp, Policy: NewCircuit(react)}})
	b.Listen()
	a.Connect(0)
	runFor(loop, 10*sim.Millisecond)
	return loop, a, b, wa, wb
}

// TestCircuitReactsAfterItsDelay: the reTCP policy ramps the window on a
// circuit-up notification (TDN 1) react after it, and restores it on any
// other TDN 2*react after, at once when react is 0. A notification alone
// sends nothing, under Circuit as under SinglePath: only the ramp's CircuitUp
// runs the transmit engine.
func TestCircuitReactsAfterItsDelay(t *testing.T) {
	for _, react := range []sim.Dur{40 * sim.Microsecond, 0} {
		loop, a, _, wa, _ := circuitPair(t, react)
		cwnd := func() float64 { return a.states[0].CC.Cwnd() }
		// Data the engine has not been run for: a notification that ran it
		// would send.
		a.backlog = 100 * 8960
		w0, sent := cwnd(), wa.sent

		a.Notify(1, 1)
		if react > 0 {
			runFor(loop, react-1)
			if cwnd() != w0 || wa.sent != sent {
				t.Errorf("react %v: before the delay cwnd %v -> %v, %d segments sent", react, w0, cwnd(), wa.sent-sent)
			}
			runFor(loop, 1)
		}
		if want := w0 * cc.DefaultReTCPAlpha; cwnd() != want || wa.sent == sent {
			t.Fatalf("react %v: after the circuit-up delay cwnd %v, want %v, and %d segments sent", react, cwnd(), want, wa.sent-sent)
		}

		sent = wa.sent
		a.Notify(0, 2)
		if wa.sent != sent {
			t.Errorf("react %v: a teardown notification sent %d segments", react, wa.sent-sent)
		}
		if react > 0 {
			runFor(loop, 2*react-1)
			if cwnd() == w0 {
				t.Errorf("react %v: the ramp was torn down before 2*react", react)
			}
			runFor(loop, 1)
		}
		if cwnd() != w0 {
			t.Errorf("react %v: after the teardown delay cwnd %v, want %v", react, cwnd(), w0)
		}
	}

	loop, a, b, wa, _ := newPair(t, pairOpt{})
	b.Listen()
	a.Connect(0)
	runFor(loop, 10*sim.Millisecond)
	a.backlog = 100 * 8960
	sent := wa.sent
	a.Notify(1, 1)
	if wa.sent != sent {
		t.Errorf("SinglePath: a notification sent %d segments", wa.sent-sent)
	}
}

// TestCircuitGateStartsAfreshOnReopen: the epoch gate in front of the reTCP
// policy belongs to the connection's life, so after Release and Reopen the
// new life's first epoch passes and ramps, however far the old one got.
func TestCircuitGateStartsAfreshOnReopen(t *testing.T) {
	loop, a, b, wa, wb := circuitPair(t, 0)
	a.Notify(1, 5)
	a.Release()
	b.Release()
	a.Reopen(wa.send)
	b.Reopen(wb.send)
	a.LocalAddr, a.RemoteAddr, a.LocalPort, a.RemotePort = 1, 2, 1000, 2000
	b.LocalAddr, b.RemoteAddr, b.LocalPort, b.RemotePort = 2, 1, 2000, 1000
	b.Listen()
	a.Connect(0)
	runFor(loop, 10*sim.Millisecond)

	a.Notify(1, 1)
	if st := a.Stats; st.NotifiesRcvd != 1 || st.NotifiesStale != 0 || st.NotifiesDup != 0 {
		t.Errorf("new life's first notification: rcvd %d stale %d dup %d, want 1, 0, 0", st.NotifiesRcvd, st.NotifiesStale, st.NotifiesDup)
	}
	if n := a.states[0].CC.(*cc.ReTCP).RampCount(); n != 1 {
		t.Errorf("new life ramped %d times, want 1", n)
	}
}
