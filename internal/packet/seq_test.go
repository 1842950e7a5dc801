package packet

import (
	"encoding/binary"
	"math"
	"slices"
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

// TestEpochGate walks one gate through the cases the TDN-change notification
// path meets: the first epoch, epoch 0 (passes, moves nothing), the wrap from
// MaxUint32 to 1, a duplicate, and stale epochs, one of them after epoch 0.
func TestEpochGate(t *testing.T) {
	steps := []struct {
		epoch uint32
		want  EpochVerdict
		last  uint32 // Last() after the step
	}{
		{0, EpochNew, 0},
		{math.MaxUint32 - 1, EpochNew, math.MaxUint32 - 1},
		{math.MaxUint32, EpochNew, math.MaxUint32},
		{0, EpochNew, math.MaxUint32},
		{1, EpochNew, 1}, // the wrap
		{1, EpochDup, 1},
		{math.MaxUint32, EpochStale, 1},
		{0, EpochNew, 1},
		{math.MaxUint32, EpochStale, 1}, // still stale after epoch 0
		{3, EpochNew, 3},
		{2, EpochStale, 3},
	}
	var g EpochGate
	for i, s := range steps {
		if got := g.Pass(s.epoch); got != s.want || g.Last() != s.last {
			t.Fatalf("step %d: Pass(%#x) = %d with Last %#x, want %d with Last %#x", i, s.epoch, got, g.Last(), s.want, s.last)
		}
	}
}

// FuzzReassembly checks the receive queue against a naive model that marks
// every point of a window, which starts a little before the 2^32 wrap, as
// arrived or not. Each 3-byte record of adds, up to 64 of them, is one Add: a
// start offset in the window and a length of 1 to 32 points. After each Add,
// Next is the first point not arrived, the ranges are the maximal runs of
// arrived points beyond it, the advanced and duplicate counts match the
// model's, and Check passes. The SACK blocks are distinct ranges of the queue,
// the first of them the range holding the last Add when that Add brought new
// points beyond Next.
func FuzzReassembly(f *testing.F) {
	f.Add(uint16(5), []byte{0, 0, 9})
	f.Add(uint16(300), []byte{40, 0, 9, 0, 0, 9, 20, 0, 29, 80, 0, 3, 10, 0, 60})
	f.Add(uint16(1), []byte{1, 0, 0, 3, 0, 0, 5, 0, 0, 7, 0, 0, 9, 0, 0, 11, 0, 0, 13, 0, 0, 15, 0, 0, 17, 0, 0, 19, 0, 0, 0, 0, 20})
	f.Fuzz(func(t *testing.T, back uint16, adds []byte) {
		const window, maxLen = 256, 32
		base := SeqOf(-uint32(back % window))
		var r Reassembly
		r.Reset(base)
		var arrived [window + maxLen]bool
		next := 0
		adds = adds[:min(len(adds), 3*64)]
		for ; len(adds) >= 3; adds = adds[3:] {
			off := int(binary.LittleEndian.Uint16(adds)) % window
			n := 1 + int(adds[2])%maxLen
			all, before := true, 0
			for p := off; p < off+n; p++ {
				all = all && arrived[p]
				if p < next {
					before++
				}
				arrived[p] = true
			}
			wantDup, prev := before, next
			if all {
				wantDup = n
			}
			for arrived[next] {
				next++
			}
			var want []SeqRange
			for p := next + 1; p < len(arrived); p++ {
				if !arrived[p] {
					continue
				}
				if k := len(want) - 1; k >= 0 && want[k].End == base.Add(p) {
					want[k].End = want[k].End.Add(1)
				} else {
					want = append(want, SeqRange{base.Add(p), base.Add(p + 1)})
				}
			}

			advanced, dup := r.Add(base.Add(off), base.Add(off+n))
			if advanced != next-prev || dup != wantDup || r.Next != base.Add(next) {
				t.Fatalf("Add(+%d, +%d): advanced %d, dup %d, Next +%d; want %d, %d, +%d",
					off, off+n, advanced, dup, r.Next.Diff(base), next-prev, wantDup, next)
			}
			if !slices.Equal(r.Ranges(), want) {
				t.Fatalf("after Add(+%d, +%d): ranges %v, want %v", off, off+n, r.Ranges(), want)
			}
			if err := r.Check(); err != nil {
				t.Fatal(err)
			}
			blocks := r.Blocks(nil, 4)
			for i, b := range blocks {
				if !slices.Contains(want, SeqRange{SeqOf(b.Start), SeqOf(b.End)}) || slices.Index(blocks, b) != i {
					t.Fatalf("SACK block %d %v is not a distinct range of %v", i, b, want)
				}
			}
			if off > next && dup < n {
				i := slices.IndexFunc(want, func(g SeqRange) bool { return g.Start.LEQ(base.Add(off)) && base.Add(off+n).LEQ(g.End) })
				if len(blocks) == 0 || blocks[0] != want[i].Block() {
					t.Fatalf("after Add(+%d, +%d): first SACK block of %v is not %v", off, off+n, blocks, want[i])
				}
			}
		}
	})
}
