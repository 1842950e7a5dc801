// Package rdcn models the reconfigurable data-center network of the paper:
// the day/night/week optical schedule (§2.1), the two-rack hybrid topology of
// the Etalon testbed (§5.1), and the ToR-generated ICMP TDN-change
// notifications with the §5.4 delivery-latency optimizations.
package rdcn

import (
	"fmt"
	"strings"
	"time"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

// NightTDN marks a reconfiguration blackout slot: no TDN is active and the
// ToR uplinks are silent.
const NightTDN = -1

// Slot is one entry of the cyclic schedule: a TDN (or NightTDN) active for
// Dur.
type Slot struct {
	TDN int
	Dur sim.Dur
}

// Schedule is a cyclic ("week", §2.1) sequence of days and nights. The
// demand-oblivious schedules of RotorNet-style fabrics repeat indefinitely.
//
// A Schedule is immutable once built: sweep workers share one.
type Schedule struct {
	Slots []Slot
	week  sim.Dur
	ends  []sim.Dur // ends[i] is slot i's end offset in the week: At's search keys
}

// NewSchedule validates and returns a schedule cycling through slots.
func NewSchedule(slots []Slot) (*Schedule, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("rdcn: schedule needs at least one slot")
	}
	// Capping the week keeps At() overflow-free everywhere a simulation can
	// reach: At adds at most one week to its argument, so times would need
	// to approach MaxInt64-week (~250 virtual years) before arithmetic
	// wraps. A cycle over a month is a misconfiguration, not a schedule.
	const maxWeek = 30 * 24 * sim.Dur(3600) * sim.Second
	var week sim.Dur
	ends := make([]sim.Dur, len(slots))
	for i, s := range slots {
		if s.Dur <= 0 {
			return nil, fmt.Errorf("rdcn: slot %d has non-positive duration", i)
		}
		if s.TDN < NightTDN {
			return nil, fmt.Errorf("rdcn: slot %d has invalid TDN %d", i, s.TDN)
		}
		week += s.Dur
		if week <= 0 || week > maxWeek { // overflow folds to a negative sum
			return nil, fmt.Errorf("rdcn: schedule week overflows %v cap", maxWeek)
		}
		ends[i] = week
	}
	return &Schedule{Slots: slots, week: week, ends: ends}, nil
}

// MustSchedule is NewSchedule that panics on error, for literals in tests
// and examples.
func MustSchedule(slots []Slot) *Schedule {
	s, err := NewSchedule(slots)
	if err != nil {
		panic(err)
	}
	return s
}

// HybridWeek builds the paper's evaluation schedule: packetDays days on the
// packet TDN (0) followed by one day on the optical TDN (1), every day
// lasting day and followed by a night of night. With packetDays=6,
// day=180µs, night=20µs this is the §5.1 configuration (6:1 ratio, 9:1 duty
// cycle, 1.4ms week).
func HybridWeek(packetDays int, day, night sim.Dur) *Schedule {
	var slots []Slot
	for i := 0; i < packetDays; i++ {
		slots = append(slots, Slot{TDN: 0, Dur: day}, Slot{TDN: NightTDN, Dur: night})
	}
	slots = append(slots, Slot{TDN: 1, Dur: day}, Slot{TDN: NightTDN, Dur: night})
	return MustSchedule(slots)
}

// Week returns the duration of one full cycle.
func (s *Schedule) Week() sim.Dur { return s.week }

// Parser limits. Generous for any realistic schedule; they exist so that
// adversarial inputs (fuzzing, user typos) fail with an error instead of
// exhausting memory on expressions like "1000x(1000x(...))".
const (
	maxParseSlots = 4096
	maxParseReps  = 1024
	maxParseDepth = 8
	maxParseTDN   = 254 // packet.MaxTDNs-1; 0xFF is reserved as "unset"
)

// ParseSchedule builds a schedule from a compact text form, used by the
// tdsim -sched flag and the fault examples:
//
//	item   := tdn ":" duration | "-" ":" duration | count "x(" items ")"
//	items  := item ("," item)*
//
// "-" is a night (reconfiguration blackout); durations use Go syntax
// ("180us", "1.5ms"); "Nx(...)" repeats a group N times. The paper's §5.1
// hybrid week is "6x(0:180us,-:20us),1:180us,-:20us".
func ParseSchedule(s string) (*Schedule, error) {
	p := schedParser{in: s}
	slots, err := p.items(0)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("rdcn: schedule spec: trailing garbage at %q", p.in[p.pos:])
	}
	return NewSchedule(slots)
}

type schedParser struct {
	in  string
	pos int
}

func (p *schedParser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

// int_ consumes a decimal integer of at most 7 digits.
func (p *schedParser) int_() (int, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, fmt.Errorf("rdcn: schedule spec: expected number at offset %d", start)
	}
	if p.pos-start > 7 {
		return 0, fmt.Errorf("rdcn: schedule spec: number too long at offset %d", start)
	}
	n := 0
	for _, c := range p.in[start:p.pos] {
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// duration consumes a Go-style duration ending at ',', ')' or end of input.
func (p *schedParser) duration() (sim.Dur, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] != ',' && p.in[p.pos] != ')' {
		p.pos++
	}
	d, err := time.ParseDuration(strings.TrimSpace(p.in[start:p.pos]))
	if err != nil {
		return 0, fmt.Errorf("rdcn: schedule spec: %v", err)
	}
	return sim.Dur(d.Nanoseconds()), nil
}

func (p *schedParser) items(depth int) ([]Slot, error) {
	if depth > maxParseDepth {
		return nil, fmt.Errorf("rdcn: schedule spec: nesting too deep")
	}
	var slots []Slot
	for {
		item, err := p.item(depth)
		if err != nil {
			return nil, err
		}
		slots = append(slots, item...)
		if len(slots) > maxParseSlots {
			return nil, fmt.Errorf("rdcn: schedule spec: more than %d slots", maxParseSlots)
		}
		p.skipSpace()
		if p.pos < len(p.in) && p.in[p.pos] == ',' {
			p.pos++
			continue
		}
		return slots, nil
	}
}

func (p *schedParser) item(depth int) ([]Slot, error) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return nil, fmt.Errorf("rdcn: schedule spec: unexpected end of input")
	}
	// Night slot: "-:dur".
	if p.in[p.pos] == '-' {
		p.pos++
		if err := p.expect(':'); err != nil {
			return nil, err
		}
		d, err := p.duration()
		if err != nil {
			return nil, err
		}
		return []Slot{{TDN: NightTDN, Dur: d}}, nil
	}
	n, err := p.int_()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == 'x' {
		// Repetition group: "Nx(items)".
		p.pos++
		if n < 1 || n > maxParseReps {
			return nil, fmt.Errorf("rdcn: schedule spec: repeat count %d out of range [1,%d]", n, maxParseReps)
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		group, err := p.items(depth + 1)
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		if n*len(group) > maxParseSlots {
			return nil, fmt.Errorf("rdcn: schedule spec: more than %d slots", maxParseSlots)
		}
		slots := make([]Slot, 0, n*len(group))
		for i := 0; i < n; i++ {
			slots = append(slots, group...)
		}
		return slots, nil
	}
	// Day slot: "tdn:dur".
	if n > maxParseTDN {
		return nil, fmt.Errorf("rdcn: schedule spec: TDN %d out of range [0,%d]", n, maxParseTDN)
	}
	if err := p.expect(':'); err != nil {
		return nil, err
	}
	d, err := p.duration()
	if err != nil {
		return nil, err
	}
	return []Slot{{TDN: n, Dur: d}}, nil
}

func (p *schedParser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.in) || p.in[p.pos] != c {
		return fmt.Errorf("rdcn: schedule spec: expected %q at offset %d", string(c), p.pos)
	}
	p.pos++
	return nil
}

// At reports the TDN active at time t. ok is false during a night. slotEnd
// is the absolute time the current slot finishes. Negative t is valid (the
// schedule extends periodically in both directions): schedule-drift faults
// evaluate At(now-offset), which goes negative early in a run.
func (s *Schedule) At(t sim.Time) (tdn int, ok bool, slotEnd sim.Time) {
	tdn, ok, _, slotEnd = s.slot(t)
	return tdn, ok, slotEnd
}

// slot is At that also reports the absolute time the slot began: the slot
// holding t is [start, end). It binary-searches the cumulative slot ends for
// the first one past t's offset in the week.
func (s *Schedule) slot(t sim.Time) (tdn int, ok bool, start, end sim.Time) {
	off := sim.Dur(int64(t) % int64(s.week))
	if off < 0 { // Go's % follows the dividend's sign; fold into [0, week)
		off += s.week
	}
	base := t.Add(-off)
	lo, hi := 0, len(s.ends)-1 // off < week = ends[len-1], so the answer is in [lo, hi]
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s.ends[m] <= off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	tdn = s.Slots[lo].TDN
	end = base.Add(s.ends[lo])
	return tdn, tdn != NightTDN, end.Add(-s.Slots[lo].Dur), end
}

// NextDayStart returns the first slot boundary strictly after t at which a
// day (non-night slot) begins, along with that day's TDN.
func (s *Schedule) NextDayStart(t sim.Time) (sim.Time, int) {
	_, _, b := s.At(t)
	for i := 0; i <= len(s.Slots); i++ {
		tdn, ok, end := s.At(b)
		if ok {
			return b, tdn
		}
		b = end
	}
	// A schedule of only nights is rejected by NewSchedule... but guard
	// against all-night schedules constructed directly.
	panic("rdcn: schedule has no day slots")
}

// NumTDNs returns the number of distinct TDNs (highest TDN index + 1).
func (s *Schedule) NumTDNs() int {
	max := -1
	for _, sl := range s.Slots {
		if sl.TDN > max {
			max = sl.TDN
		}
	}
	return max + 1
}

// DutyCycle returns the ratio of day time to total time.
func (s *Schedule) DutyCycle() float64 {
	var up sim.Dur
	for _, sl := range s.Slots {
		if sl.TDN != NightTDN {
			up += sl.Dur
		}
	}
	return float64(up) / float64(s.week)
}

// TDNShare returns the fraction of the week during which tdn is active.
func (s *Schedule) TDNShare(tdn int) float64 {
	var up sim.Dur
	for _, sl := range s.Slots {
		if sl.TDN == tdn {
			up += sl.Dur
		}
	}
	return float64(up) / float64(s.week)
}
