package packet

import (
	"math"
	"testing"
)

// TestSeqWraparoundBoundaries pins Seq's RFC 1982 comparisons at the exact
// boundary values where raw uint32 comparisons go wrong: around zero, around
// MaxUint32, and at the half-space distance MaxUint32/2±1 where the signed
// interpretation flips.
func TestSeqWraparoundBoundaries(t *testing.T) {
	const (
		max  = math.MaxUint32     // 0xFFFFFFFF
		half = math.MaxUint32 / 2 // 0x7FFFFFFF
	)
	cases := []struct {
		name string
		a, b uint32
		lt   bool // SeqOf(a).LT(SeqOf(b))
	}{
		// Around zero: max is one *before* zero, not 2^32-1 after it.
		{"max precedes 0", max, 0, true},
		{"0 follows max", 0, max, false},
		{"max precedes 16 past wrap", 0xFFFFFFF0, 0x10, true},
		{"16 follows pre-wrap max", 0x10, 0xFFFFFFF0, false},

		// Adjacent values.
		{"0 precedes 1", 0, 1, true},
		{"1 follows 0", 1, 0, false},

		// Half-space boundary: distances up to 2^31-1 read as "after";
		// exactly 2^31 flips sign and reads as "before" (RFC 1982 leaves
		// the midpoint undefined; the int32 idiom resolves it as shown).
		{"half distance still follows", half, 0, false},
		{"half+1 wraps to precede", half + 1, 0, true},
		{"half-1 follows", half - 1, 0, false},
		{"0 precedes half", 0, half, true},
		// Exactly 2^31 apart is RFC 1982's undefined midpoint: the int32
		// idiom reads *both* directions as "precedes".
		{"midpoint reads as precedes either way", 0, half + 1, true},
	}
	for _, c := range cases {
		a, b := SeqOf(c.a), SeqOf(c.b)
		if got := a.LT(b); got != c.lt {
			t.Errorf("%s: %#x.LT(%#x)=%v want %v", c.name, c.a, c.b, got, c.lt)
		}
		// The family must stay mutually consistent at every boundary pair:
		// GT is LT reversed, LEQ/GEQ are their complements plus equality.
		// The lone exception is the undefined midpoint, where the reversed
		// comparison also reads "precedes" and symmetry does not hold.
		if int32(c.a-c.b) != math.MinInt32 {
			if got := b.GT(a); got != c.lt {
				t.Errorf("%s: %#x.GT(%#x)=%v want %v", c.name, c.b, c.a, got, c.lt)
			}
		}
		if got := a.LEQ(b); got != (c.lt || c.a == c.b) {
			t.Errorf("%s: %#x.LEQ(%#x)=%v", c.name, c.a, c.b, got)
		}
		if got := a.GEQ(b); got != (!c.lt || c.a == c.b) {
			t.Errorf("%s: %#x.GEQ(%#x)=%v", c.name, c.a, c.b, got)
		}
	}
}

func TestSeqEquality(t *testing.T) {
	for _, v := range []uint32{0, 1, math.MaxUint32/2 - 1, math.MaxUint32 / 2, math.MaxUint32/2 + 1, math.MaxUint32} {
		s := SeqOf(v)
		if s.LT(s) || s.GT(s) {
			t.Errorf("%#x: LT/GT with itself must be false", v)
		}
		if !s.LEQ(s) || !s.GEQ(s) {
			t.Errorf("%#x: LEQ/GEQ with itself must be true", v)
		}
		if s.Diff(s) != 0 {
			t.Errorf("%#x: Diff with itself != 0", v)
		}
		if s.Add(0) != s || s.Uint32() != v {
			t.Errorf("%#x: Add(0) or Uint32 is not the identity", v)
		}
	}
}

func TestSeqMax(t *testing.T) {
	cases := []struct{ a, b, want uint32 }{
		{0xFFFFFFF0, 0x10, 0x10}, // later in sequence space despite smaller value
		{0x10, 0xFFFFFFF0, 0x10},
		{5, 7, 7},
		{7, 7, 7},
		{math.MaxUint32, 0, 0},
	}
	for _, c := range cases {
		if got := SeqOf(c.a).Max(SeqOf(c.b)); got != SeqOf(c.want) {
			t.Errorf("%#x.Max(%#x)=%#x want %#x", c.a, c.b, got.Uint32(), c.want)
		}
	}
}

func TestSeqDiff(t *testing.T) {
	cases := []struct {
		a, b uint32
		want int32
	}{
		{10, 3, 7},
		{3, 10, -7},
		{0, math.MaxUint32, 1},  // 0 is one past max
		{math.MaxUint32, 0, -1}, // max is one before 0
		{0x10, 0xFFFFFFF0, 0x20},
	}
	for _, c := range cases {
		a, b := SeqOf(c.a), SeqOf(c.b)
		if got := a.Diff(b); got != c.want {
			t.Errorf("%#x.Diff(%#x)=%d want %d", c.a, c.b, got, c.want)
		}
		// Add is Diff's inverse, across the wrap too.
		if got := b.Add(int(c.want)); got != a {
			t.Errorf("%#x.Add(%d)=%#x want %#x", c.b, c.want, got.Uint32(), c.a)
		}
	}
}
