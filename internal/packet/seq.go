package packet

// Seq is a point in a wrapping 32-bit sequence space: a TCP sequence or
// acknowledgment number, an MPTCP data sequence number (DSN), or a
// TDN-change notification epoch.
//
// Raw ordered comparisons (<, >, <=, >=) are wrong near the wrap:
// 0x00000010 comes *after* 0xFFFFFFF0, not before. Seq is a struct so that
// such a comparison does not compile; ordering goes through the RFC 1982
// methods below, and == and != stay legal. The methods follow the usual TCP
// convention (Linux's before()/after()): a precedes b when the signed
// distance a-b is negative, which is correct whenever the two values are
// within 2^31 of each other — true by construction for TCP windows and for
// epoch counters that advance by one per schedule transition.
//
// The wire stays uint32. TCPHeader.Seq/Ack/DSN, SACKBlock and
// TDNNotification.Epoch are what the codec reads and writes, and the
// transport converts once at each crossing: SeqOf where a header field is
// read, Uint32 where one is written.
type Seq struct{ v uint32 }

// SeqOf returns the sequence-space point with wire value v.
func SeqOf(v uint32) Seq { return Seq{v} }

// Uint32 returns the wire value of s.
func (s Seq) Uint32() uint32 { return s.v }

// LT reports whether s precedes b in sequence space.
func (s Seq) LT(b Seq) bool { return int32(s.v-b.v) < 0 }

// LEQ reports whether s precedes or equals b in sequence space.
func (s Seq) LEQ(b Seq) bool { return int32(s.v-b.v) <= 0 }

// GT reports whether s follows b in sequence space.
func (s Seq) GT(b Seq) bool { return int32(s.v-b.v) > 0 }

// GEQ reports whether s follows or equals b in sequence space.
func (s Seq) GEQ(b Seq) bool { return int32(s.v-b.v) >= 0 }

// Max returns the later of s and b in sequence space.
func (s Seq) Max(b Seq) Seq {
	if s.GT(b) {
		return s
	}
	return b
}

// Add returns the point n positions after s (before it for negative n),
// wrapping at 2^32.
func (s Seq) Add(n int) Seq { return Seq{s.v + uint32(n)} }

// Diff returns the signed distance s-b in sequence space: positive when s
// follows b, negative when it precedes it. uint32(s.Diff(b)) is the unsigned
// distance, for offsets that may reach 2^31.
func (s Seq) Diff(b Seq) int32 { return int32(s.v - b.v) }

// SeqRange is a half-open range [Start, End) of sequence space: a reassembly
// queue entry or a D-SACK report. SACKBlock is its wire form.
type SeqRange struct{ Start, End Seq }

// Block returns r as a wire SACK block.
func (r SeqRange) Block() SACKBlock { return SACKBlock{Start: r.Start.v, End: r.End.v} }
