package rdcn

import (
	"fmt"
	"strings"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

// walkAt is the reference for Schedule.At: the week's slots walked in order
// from the start of t's week.
func walkAt(s *Schedule, t sim.Time) (tdn int, ok bool, slotEnd sim.Time) {
	off := sim.Dur(int64(t) % int64(s.Week()))
	if off < 0 {
		off += s.Week()
	}
	base := t.Add(-off)
	for _, sl := range s.Slots {
		if off < sl.Dur {
			return sl.TDN, sl.TDN != NightTDN, base.Add(sl.Dur)
		}
		off -= sl.Dur
		base = base.Add(sl.Dur)
	}
	panic("walkAt: offset past the week")
}

// walkNextDayStart is the reference for Schedule.NextDayStart: walkAt from
// one slot end to the next until a day begins.
func walkNextDayStart(s *Schedule, t sim.Time) (sim.Time, int) {
	_, _, b := walkAt(s, t)
	for {
		tdn, ok, end := walkAt(s, b)
		if ok {
			return b, tdn
		}
		b = end
	}
}

// rotorSpec is RotorWeek(racks, packetDays, 180us, 20us) in ParseSchedule's
// text form.
func rotorSpec(racks, packetDays int) string {
	var b strings.Builder
	for k := 1; k <= NumMatchings(racks); k++ {
		if k > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%dx(0:180us,-:20us),%d:180us,-:20us", packetDays, k)
	}
	return b.String()
}

// FuzzScheduleParse feeds arbitrary specs through the schedule parser: it
// must never panic, and every schedule it accepts must be well-formed — a
// positive week and an At() that always makes forward progress (the schedule
// transition loop re-arms at slotEnd, so a non-advancing slot would hang the
// simulation). At and NextDayStart must equal the linear slot walk above at a
// fuzzed time, negative and many weeks out included, and at the edges of the
// first weeks either side of zero.
func FuzzScheduleParse(f *testing.F) {
	for _, seed := range []string{
		"6x(0:180us,-:20us),1:180us,-:20us", // the paper's hybrid week
		"0:1ms",
		"-:5us,1:5us",
		"3x(1:10us)",
		"2x(2x(0:1us,-:1us),1:3us)",
		"0:180", // missing unit
		"9999999x(0:1us)",
		"1:9223372036854775807ns,0:1s", // week overflow
		" 1 : 10us , - : 2us ",
		"x(",
		rotorSpec(8, 6), // the 8-rack rotor's 98-slot week
	} {
		f.Add(seed, int64(0))
	}
	f.Add(rotorSpec(8, 6), int64(-3_000_017))
	f.Add(rotorSpec(8, 6), int64(41*19_600_000+12_345))
	f.Fuzz(func(t *testing.T, spec string, at int64) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		w := s.Week()
		if w <= 0 {
			t.Fatalf("accepted schedule with non-positive week %v: %q", w, spec)
		}
		for _, tm := range []sim.Time{
			sim.Time(at % (1 << 60)), // far from overflow: At and NextDayStart look at most two weeks ahead
			0, sim.Time(w) - 1, sim.Time(w), 2*sim.Time(w) + 3,
			-1, -sim.Time(w) / 2, -3 * sim.Time(w),
		} {
			tdn, ok, end := s.At(tm)
			if end <= tm {
				t.Fatalf("At(%v) slotEnd %v does not advance: %q", tm, end, spec)
			}
			if ok && (tdn < 0 || tdn == NightTDN) {
				t.Fatalf("At(%v) ok with invalid TDN %d: %q", tm, tdn, spec)
			}
			if wt, wok, wend := walkAt(s, tm); tdn != wt || ok != wok || end != wend {
				t.Fatalf("At(%v) = (%d, %v, %v), the slot walk says (%d, %v, %v): %q", tm, tdn, ok, end, wt, wok, wend, spec)
			}
			if s.NumTDNs() == 0 {
				continue // only nights: there is no next day
			}
			day, dtdn := s.NextDayStart(tm)
			if wday, wtdn := walkNextDayStart(s, tm); day != wday || dtdn != wtdn {
				t.Fatalf("NextDayStart(%v) = (%v, %d), the slot walk says (%v, %d): %q", tm, day, dtdn, wday, wtdn, spec)
			}
		}
	})
}
