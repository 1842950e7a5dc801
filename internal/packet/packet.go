// Package packet implements the wire formats used by TDTCP (Figure 5 of the
// paper): a simplified IPv4+TCP segment carrying the TD_CAPABLE and
// TD_DATA_ACK TCP options, standard SACK options (RFC 2018), and the ICMP
// TDN-change notification.
//
// Every segment that crosses the simulated network is serialized to bytes by
// the sender and re-parsed by the receiver, in the style of gopacket's
// DecodingLayerParser: Parse decodes into a caller-owned, reusable struct and
// performs no allocation on the fast path beyond SACK block storage.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Protocol numbers for the simplified IPv4 header.
const (
	ProtoTCP  = 6
	ProtoICMP = 1
)

// ECN codepoints, carried in the low two bits of the IPv4 TOS byte
// (RFC 3168).
const (
	ECNNotECT = 0b00
	ECNECT1   = 0b01
	ECNECT0   = 0b10
	ECNCE     = 0b11
)

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
	FlagECE = 1 << 6
	FlagCWR = 1 << 7
)

// TCP option kinds.
const (
	OptEnd           = 0
	OptNOP           = 1
	OptMSS           = 2
	OptWScale        = 3
	OptSACKPermitted = 4
	OptSACK          = 5
	OptTimestamps    = 8
	// OptTDTCP is the experimental option kind (RFC 4727 experiment space)
	// shared by the TD_CAPABLE and TD_DATA_ACK subtypes of Figure 5.
	OptTDTCP = 253
	// OptMPDSS is a compact MPTCP data-sequence-signal option: it maps the
	// carrying segment's payload onto the connection-level sequence space
	// (the paper's MPTCP baseline needs per-segment DSN mappings).
	OptMPDSS = 254
)

// TDTCP option subtypes (Figure 5b and 5c).
const (
	SubTDCapable = 0x0
	SubTDDataACK = 0x1
)

// TD_DATA_ACK flag bits: D is set when the segment carries data (DataTDN
// valid), A when it carries an acknowledgment (AckTDN valid).
const (
	TDFlagData = 1 << 3
	TDFlagACK  = 1 << 2
)

// NoTDN marks an unset TDN ID field.
const NoTDN = 0xFF

// MaxTDNs is the largest number of distinct TDNs the single-byte ID fields
// of Figure 5 can express (§4.1 reserves 0xFF as "unset").
const MaxTDNs = 255

// SACKBlock is one contiguous received range [Start, End) in sequence space.
type SACKBlock struct {
	Start, End uint32
}

// TCPHeader is the parsed TCP header of a segment, including TDTCP options.
// PayloadLen stands in for the actual payload bytes: the simulator transfers
// bulk data whose content is irrelevant, so only its length is carried.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint32 // already descaled; serialized via a fixed wscale

	// TDTCP handshake option (SYN / SYN-ACK only).
	TDCapable bool
	NumTDNs   uint8

	// TD_DATA_ACK option, present on every established-connection segment.
	TDPresent bool
	TDFlags   uint8
	DataTDN   uint8 // valid when TDFlags&TDFlagData != 0
	AckTDN    uint8 // valid when TDFlags&TDFlagACK != 0

	SACKPermitted bool
	SACK          []SACKBlock

	// MPTCP data-sequence signal: when present, the payload's first byte
	// corresponds to connection-level sequence number DSN.
	MPDSSPresent bool
	DSN          uint32

	PayloadLen int
}

// Segment is a full simulated packet: simplified IPv4 plus either a TCP
// header or an ICMP TDN-change notification.
type Segment struct {
	Src, Dst uint32 // IPv4 addresses
	ECN      uint8  // ECN codepoint; switches set ECNCE to mark congestion
	TTL      uint8

	Proto uint8 // ProtoTCP or ProtoICMP
	TCP   TCPHeader
	ICMP  TDNNotification
}

// Clone returns an independent deep copy of the segment. Senders that retain
// a segment past the call that handed it over (the Conn.Out contract allows
// the connection to reuse its backing storage) must clone it first: the SACK
// slice in particular aliases the original's storage under a shallow copy.
func (s *Segment) Clone() *Segment {
	cp := *s
	if len(s.TCP.SACK) > 0 {
		cp.TCP.SACK = append([]SACKBlock(nil), s.TCP.SACK...)
	} else {
		cp.TCP.SACK = nil
	}
	return &cp
}

// TDNNotification is the ICMP TDN-change notification of Figure 5a: the
// first payload byte carries the currently-active TDN ID.
type TDNNotification struct {
	ActiveTDN uint8
	// Epoch counts schedule transitions, letting receivers discard
	// reordered notifications.
	Epoch uint32
}

const (
	icmpTypeTDNChange = 42 // private-use type for the Fig. 5a notification

	ipv4HeaderLen = 20
	tcpBaseLen    = 20
	// icmpLen is the TDN-change notification length: type/code/checksum
	// (4 bytes), active TDN + 3 reserved bytes, then the full 32-bit epoch.
	// The epoch must be carried whole — a truncated epoch would wrap early
	// and defeat the receiver's serial-number staleness check.
	icmpLen   = 12
	wireScale = 8 // fixed window scale used when serializing Window
)

// Errors returned by Parse.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadChecksum = errors.New("packet: bad checksum")
	ErrBadVersion  = errors.New("packet: bad IP version")
	ErrBadProto    = errors.New("packet: unsupported protocol")
	ErrBadOption   = errors.New("packet: malformed TCP option")
)

// internet checksum (RFC 1071).
//
// Hot path: runs twice per frame (serialize and parse).
func checksum(b []byte) uint16 {
	// Eight bytes per iteration: four 16-bit big-endian words extracted
	// from one 64-bit load. The ones-complement sum is associative, so the
	// wide accumulation folds to the same RFC 1071 result; a uint64
	// accumulator cannot overflow below 2^48 summed words.
	var sum uint64
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := binary.BigEndian.Uint64(b[i:])
		sum += v>>48 + v>>32&0xFFFF + v>>16&0xFFFF + v&0xFFFF
	}
	for ; i+1 < len(b); i += 2 {
		sum += uint64(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint64(b[len(b)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum >> 16) + (sum & 0xFFFF)
	}
	return ^uint16(sum)
}

// optionsLen returns the serialized, padded TCP options length.
func (h *TCPHeader) optionsLen() int {
	n := 0
	if h.TDCapable {
		n += 4
	}
	if h.SACKPermitted {
		n += 2
	}
	if h.TDPresent {
		n += 6
	}
	if h.MPDSSPresent {
		n += 6
	}
	if len(h.SACK) > 0 {
		n += 2 + 8*len(h.SACK)
	}
	return (n + 3) &^ 3 // pad to 4-byte boundary
}

// WireLen returns the total serialized length of the segment in bytes,
// including the virtual payload. This is the length links and queues charge
// for.
func (s *Segment) WireLen() int {
	switch s.Proto {
	case ProtoICMP:
		return ipv4HeaderLen + icmpLen
	default:
		return ipv4HeaderLen + tcpBaseLen + s.TCP.optionsLen() + s.TCP.PayloadLen
	}
}

// HeaderLen returns the number of bytes Serialize will produce (everything
// except the virtual payload).
func (s *Segment) HeaderLen() int {
	switch s.Proto {
	case ProtoICMP:
		return ipv4HeaderLen + icmpLen
	default:
		return ipv4HeaderLen + tcpBaseLen + s.TCP.optionsLen()
	}
}

// Serialize appends the wire encoding of the segment headers to buf and
// returns the extended slice. The virtual payload is not materialized; its
// length is encoded in the IPv4 total-length field.
func (s *Segment) Serialize(buf []byte) []byte {
	start := len(buf)
	hl := s.HeaderLen()
	total := s.WireLen()
	buf = append(buf, make([]byte, hl)...)
	b := buf[start:]

	// IPv4.
	b[0] = 0x45 // version 4, IHL 5
	b[1] = s.ECN & 0x03
	binary.BigEndian.PutUint16(b[2:], uint16(min(total, 0xFFFF)))
	b[8] = s.TTL
	b[9] = s.Proto
	binary.BigEndian.PutUint32(b[12:], s.Src)
	binary.BigEndian.PutUint32(b[16:], s.Dst)
	binary.BigEndian.PutUint16(b[10:], checksum(b[:ipv4HeaderLen]))

	p := b[ipv4HeaderLen:]
	switch s.Proto {
	case ProtoICMP:
		p[0] = icmpTypeTDNChange
		p[1] = 0 // code
		p[4] = s.ICMP.ActiveTDN
		binary.BigEndian.PutUint32(p[8:], s.ICMP.Epoch)
		binary.BigEndian.PutUint16(p[2:], checksum(p[:icmpLen]))
	case ProtoTCP:
		h := &s.TCP
		binary.BigEndian.PutUint16(p[0:], h.SrcPort)
		binary.BigEndian.PutUint16(p[2:], h.DstPort)
		binary.BigEndian.PutUint32(p[4:], h.Seq)
		binary.BigEndian.PutUint32(p[8:], h.Ack)
		dataOff := (tcpBaseLen + h.optionsLen()) / 4
		p[12] = byte(dataOff << 4)
		p[13] = h.Flags
		binary.BigEndian.PutUint16(p[14:], uint16(min(int(h.Window>>wireScale), 0xFFFF)))
		// Options.
		o := p[tcpBaseLen:]
		i := 0
		if h.TDCapable {
			o[i] = OptTDTCP
			o[i+1] = 4
			o[i+2] = SubTDCapable << 4
			o[i+3] = h.NumTDNs
			i += 4
		}
		if h.SACKPermitted {
			o[i] = OptSACKPermitted
			o[i+1] = 2
			i += 2
		}
		if h.TDPresent {
			o[i] = OptTDTCP
			o[i+1] = 6
			o[i+2] = SubTDDataACK<<4 | (h.TDFlags & 0x0F)
			o[i+3] = h.DataTDN
			o[i+4] = h.AckTDN
			o[i+5] = 0
			i += 6
		}
		if h.MPDSSPresent {
			o[i] = OptMPDSS
			o[i+1] = 6
			binary.BigEndian.PutUint32(o[i+2:], h.DSN)
			i += 6
		}
		if len(h.SACK) > 0 {
			o[i] = OptSACK
			o[i+1] = byte(2 + 8*len(h.SACK))
			j := i + 2
			for _, blk := range h.SACK {
				binary.BigEndian.PutUint32(o[j:], blk.Start)
				binary.BigEndian.PutUint32(o[j+4:], blk.End)
				j += 8
			}
			i = j
		}
		for i < len(o) {
			o[i] = OptNOP
			i++
		}
		binary.BigEndian.PutUint16(p[16:], checksum(p))
	default:
		panic(fmt.Sprintf("packet: cannot serialize protocol %d", s.Proto))
	}
	return buf
}

// Parse decodes the wire bytes b into s, reusing s's storage (gopacket
// DecodingLayer style). s.TCP.SACK is truncated and re-filled. b must contain
// the full header as produced by Serialize.
func Parse(b []byte, s *Segment) error {
	if len(b) < ipv4HeaderLen {
		return ErrTruncated
	}
	if b[0]>>4 != 4 {
		return ErrBadVersion
	}
	if checksum(b[:ipv4HeaderLen]) != 0 {
		return ErrBadChecksum
	}
	s.ECN = b[1] & 0x03
	total := int(binary.BigEndian.Uint16(b[2:]))
	s.TTL = b[8]
	s.Proto = b[9]
	s.Src = binary.BigEndian.Uint32(b[12:])
	s.Dst = binary.BigEndian.Uint32(b[16:])

	p := b[ipv4HeaderLen:]
	switch s.Proto {
	case ProtoICMP:
		if len(p) < icmpLen {
			return ErrTruncated
		}
		if checksum(p[:icmpLen]) != 0 {
			return ErrBadChecksum
		}
		if p[0] != icmpTypeTDNChange {
			return fmt.Errorf("packet: unexpected ICMP type %d", p[0])
		}
		s.ICMP.ActiveTDN = p[4]
		s.ICMP.Epoch = binary.BigEndian.Uint32(p[8:])
		return nil
	case ProtoTCP:
		if len(p) < tcpBaseLen {
			return ErrTruncated
		}
		h := &s.TCP
		*h = TCPHeader{SACK: h.SACK[:0]}
		h.SrcPort = binary.BigEndian.Uint16(p[0:])
		h.DstPort = binary.BigEndian.Uint16(p[2:])
		h.Seq = binary.BigEndian.Uint32(p[4:])
		h.Ack = binary.BigEndian.Uint32(p[8:])
		dataOff := int(p[12]>>4) * 4
		if dataOff < tcpBaseLen || len(p) < dataOff {
			return ErrTruncated
		}
		if checksum(p[:dataOff]) != 0 {
			return ErrBadChecksum
		}
		h.Flags = p[13]
		h.Window = uint32(binary.BigEndian.Uint16(p[14:])) << wireScale
		h.PayloadLen = total - ipv4HeaderLen - dataOff
		if h.PayloadLen < 0 {
			return ErrTruncated
		}
		o := p[tcpBaseLen:dataOff]
		for i := 0; i < len(o); {
			switch o[i] {
			case OptEnd:
				i = len(o)
			case OptNOP:
				i++
			default:
				if i+1 >= len(o) || int(o[i+1]) < 2 || i+int(o[i+1]) > len(o) {
					return ErrBadOption
				}
				olen := int(o[i+1])
				body := o[i+2 : i+olen]
				switch o[i] {
				case OptSACKPermitted:
					h.SACKPermitted = true
				case OptSACK:
					if (olen-2)%8 != 0 {
						return ErrBadOption
					}
					for j := 0; j+8 <= len(body); j += 8 {
						h.SACK = append(h.SACK, SACKBlock{
							Start: binary.BigEndian.Uint32(body[j:]),
							End:   binary.BigEndian.Uint32(body[j+4:]),
						})
					}
				case OptMPDSS:
					if olen != 6 {
						return ErrBadOption
					}
					h.MPDSSPresent = true
					h.DSN = binary.BigEndian.Uint32(body)
				case OptTDTCP:
					if len(body) < 1 {
						return ErrBadOption
					}
					switch body[0] >> 4 {
					case SubTDCapable:
						if olen != 4 {
							return ErrBadOption
						}
						h.TDCapable = true
						h.NumTDNs = body[1]
					case SubTDDataACK:
						if olen != 6 {
							return ErrBadOption
						}
						h.TDPresent = true
						h.TDFlags = body[0] & 0x0F
						h.DataTDN = body[1]
						h.AckTDN = body[2]
					default:
						return ErrBadOption
					}
				}
				i += olen
			}
		}
		return nil
	default:
		return ErrBadProto
	}
}

// FlagString renders TCP flags in the conventional compact form.
func FlagString(f uint8) string {
	var b strings.Builder
	for _, fl := range []struct {
		bit  uint8
		name string
	}{
		{FlagSYN, "S"}, {FlagFIN, "F"}, {FlagRST, "R"}, {FlagPSH, "P"},
		{FlagACK, "."}, {FlagECE, "E"}, {FlagCWR, "W"},
	} {
		if f&fl.bit != 0 {
			b.WriteString(fl.name)
		}
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// Dissect renders the segment in a Wireshark-like one-line form, matching
// what the paper's modified Wireshark dissector displays for TDTCP packets.
func (s *Segment) Dissect() string {
	var b strings.Builder
	fmt.Fprintf(&b, "IP %s > %s ecn=%d ", ipStr(s.Src), ipStr(s.Dst), s.ECN)
	switch s.Proto {
	case ProtoICMP:
		fmt.Fprintf(&b, "ICMP tdn-change active=%d epoch=%d", s.ICMP.ActiveTDN, s.ICMP.Epoch)
	case ProtoTCP:
		h := &s.TCP
		fmt.Fprintf(&b, "TCP %d > %d [%s] seq=%d ack=%d win=%d len=%d",
			h.SrcPort, h.DstPort, FlagString(h.Flags), h.Seq, h.Ack, h.Window, h.PayloadLen)
		if h.TDCapable {
			fmt.Fprintf(&b, " td_capable{ntdns=%d}", h.NumTDNs)
		}
		if h.TDPresent {
			fmt.Fprintf(&b, " td_data_ack{")
			if h.TDFlags&TDFlagData != 0 {
				fmt.Fprintf(&b, "D:tdn=%d", h.DataTDN)
			}
			if h.TDFlags&TDFlagACK != 0 {
				if h.TDFlags&TDFlagData != 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "A:tdn=%d", h.AckTDN)
			}
			b.WriteByte('}')
		}
		if h.MPDSSPresent {
			fmt.Fprintf(&b, " dss{dsn=%d}", h.DSN)
		}
		for _, blk := range h.SACK {
			fmt.Fprintf(&b, " sack=[%d,%d)", blk.Start, blk.End)
		}
	default:
		fmt.Fprintf(&b, "proto=%d", s.Proto)
	}
	return b.String()
}

func ipStr(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}
