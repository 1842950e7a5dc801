package tcp

import (
	"encoding/binary"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// FuzzConnDeliver crafts adversarial segment streams — hostile sequence and
// ACK numbers, ghost SACKs, out-of-range TDN tags, flag soup, replayed
// notifications — and delivers them into an established TD-capable pair with
// data in flight. A record may instead release the target mid-transfer, then
// its peer, and reopen both on the storage they kept for a fresh handshake and
// transfer, with the old life's segments still on the wires. The connection
// must neither panic nor break a scoreboard invariant, no matter what arrives
// off the wire.
func FuzzConnDeliver(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x10, 9, 0, 0, 0, 9, 0, 0, 0, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{
		0x42, 0x20, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 2, 0, 40, 0, 0, 1,
		0x81, 0x00, 0, 0, 0, 0x80, 0, 0, 0, 0x80, 9, 9, 0, 0, 0, 0,
	})
	f.Add([]byte{0xfe, 0x03, 0x34, 0x12, 0, 0, 0x78, 0x56, 0, 0, 3, 2, 1, 0xff, 0xff, 0xff})
	f.Add([]byte{
		0x03, 0xff, 60, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0x41, 0x10, 0, 0, 0, 0, 9, 0, 0, 0, 2, 0, 0, 0x40, 0, 0,
	})

	flagTable := [8]uint8{
		0, packet.FlagFIN, packet.FlagRST, packet.FlagSYN,
		packet.FlagECE, packet.FlagCWR, packet.FlagPSH, packet.FlagFIN | packet.FlagRST,
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		loop, a, b, wa, wb := newPair(t, pairOpt{
			cfgA: Config{NumTDNs: 2},
			cfgB: Config{NumTDNs: 2},
		})
		transfer := func() {
			b.Listen()
			a.Connect(0)
			runFor(loop, 10*sim.Millisecond)
			a.QueueBytes(50 * 8960)
			runFor(loop, 2*sim.Millisecond) // get data and SACK state in flight
		}
		transfer()

		for len(data) >= 16 {
			rec := data[:16]
			data = data[16:]

			target, peer := b, a
			if rec[0]&1 != 0 {
				target, peer = a, b
			}
			if rec[0]&2 != 0 && rec[1] == 0xff {
				// Put data in flight for rec[2] µs, release the target, then
				// its peer, and reopen both.
				a.QueueBytes(50 * 8960)
				runFor(loop, sim.Dur(rec[2])*sim.Microsecond)
				target.Release()
				if err := target.CheckInvariants(); err != nil {
					t.Fatalf("released mid-transfer: %v", err)
				}
				peer.Release()
				a.Reopen(wa.send)
				b.Reopen(wb.send)
				a.LocalAddr, a.RemoteAddr, a.LocalPort, a.RemotePort = 1, 2, 1000, 2000
				b.LocalAddr, b.RemoteAddr, b.LocalPort, b.RemotePort = 2, 1, 2000, 1000
				transfer()
			} else if rec[0]&2 != 0 {
				// Replay a TDN notification with an arbitrary epoch.
				target.Notify(int(rec[10]%3), binary.LittleEndian.Uint32(rec[2:6]))
			} else {
				seg := &packet.Segment{
					Src: peer.LocalAddr, Dst: target.LocalAddr,
					TTL: 64, Proto: packet.ProtoTCP,
				}
				h := &seg.TCP
				h.SrcPort, h.DstPort = peer.LocalPort, target.LocalPort
				h.Seq = target.rcv.Next.Uint32() + binary.LittleEndian.Uint32(rec[2:6])
				h.Ack = target.sndUna.Uint32() + binary.LittleEndian.Uint32(rec[6:10])
				h.Flags = packet.FlagACK | flagTable[(rec[0]>>2)&7]
				h.Window = 1 << 20
				h.PayloadLen = int(rec[1]) * 128
				if rec[0]&0x20 != 0 {
					h.TDPresent = true
					h.TDFlags = packet.TDFlagData | packet.TDFlagACK
					h.DataTDN = rec[10] // may be far out of range
					h.AckTDN = rec[11]
				}
				if rec[0]&0x40 != 0 {
					start := target.sndUna.Uint32() + binary.LittleEndian.Uint32(rec[12:16])
					h.SACKPermitted = true
					h.SACK = []packet.SACKBlock{
						{Start: start, End: start + uint32(rec[10])*512 + 1},
						{Start: start + 1<<16, End: start + 1<<16 + uint32(rec[11])*512 + 1},
					}
				}
				if rec[0]&0x80 != 0 {
					seg.ECN = packet.ECNCE
				}
				target.Input(seg)
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("sender invariants: %v", err)
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("receiver invariants: %v", err)
			}
		}

		// The pair must still run to quiescence without panicking.
		runFor(loop, 5*sim.Millisecond)
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("sender invariants after drain: %v", err)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("receiver invariants after drain: %v", err)
		}
	})
}
