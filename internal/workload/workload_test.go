package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

func params() (*rdcn.Schedule, []rdcn.TDNParams) {
	return rdcn.HybridWeek(6, 180*sim.Microsecond, 20*sim.Microsecond),
		[]rdcn.TDNParams{
			{Rate: 10 * sim.Gbps, Delay: 49 * sim.Microsecond},
			{Rate: 100 * sim.Gbps, Delay: 19 * sim.Microsecond},
		}
}

func TestOptimalBytesOneWeek(t *testing.T) {
	sch, tdns := params()
	week := sim.Time(sch.Week())
	got := OptimalBytes(sch, tdns, week)
	// 6 packet days at 10 Gbps * 180us + 1 optical day at 100 Gbps * 180us.
	want := int64(6*10e9/8*180e-6 + 100e9/8*180e-6)
	if math.Abs(float64(got-want)) > 100 {
		t.Fatalf("optimal bytes = %d, want %d", got, want)
	}
}

func TestOptimalBytesMidDay(t *testing.T) {
	sch, tdns := params()
	// 90us into the first (packet) day: half a day at 10 Gbps.
	got := OptimalBytes(sch, tdns, sim.Time(90*sim.Microsecond))
	want := int64(10e9 / 8 * 90e-6)
	if math.Abs(float64(got-want)) > 100 {
		t.Fatalf("mid-day bytes = %d, want %d", got, want)
	}
	// Night adds nothing: value at 200us equals value at 180us.
	if OptimalBytes(sch, tdns, sim.Time(200*sim.Microsecond)) != OptimalBytes(sch, tdns, sim.Time(180*sim.Microsecond)) {
		t.Fatal("night contributed bytes")
	}
}

func TestPacketOnlyContinuous(t *testing.T) {
	got := PacketOnlyBytes(10*sim.Gbps, sim.Time(1400*sim.Microsecond))
	want := int64(10e9 / 8 * 1400e-6)
	if got != want {
		t.Fatalf("packet-only = %d, want %d", got, want)
	}
}

// Property: optimal is monotone and bounded by the fastest TDN's line rate.
func TestOptimalMonotoneBounded(t *testing.T) {
	sch, tdns := params()
	f := func(a, b uint16) bool {
		t1 := sim.Time(a) * sim.Time(sim.Microsecond)
		t2 := sim.Time(b) * sim.Time(sim.Microsecond)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		b1 := OptimalBytes(sch, tdns, t1)
		b2 := OptimalBytes(sch, tdns, t2)
		if b2 < b1 {
			return false
		}
		cap := (100 * sim.Gbps).BytesIn(sim.Dur(t2)) + 1
		return b2 <= cap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalSeries(t *testing.T) {
	sch, tdns := params()
	s := OptimalSeries(sch, tdns, 0, sim.Time(1400*sim.Microsecond), 100*sim.Microsecond)
	if s.Len() != 15 {
		t.Fatalf("series len = %d", s.Len())
	}
	for i := 1; i < s.Len(); i++ {
		if s.V[i] < s.V[i-1] {
			t.Fatal("optimal series not monotone")
		}
	}
	p := PacketOnlySeries(10*sim.Gbps, 0, sim.Time(1400*sim.Microsecond), 100*sim.Microsecond)
	// Optimal ends above packet-only (extra optical capacity).
	if s.Last() <= p.Last() {
		t.Fatalf("optimal %v not above packet-only %v", s.Last(), p.Last())
	}
}

func TestOptimalGbps(t *testing.T) {
	sch, tdns := params()
	got := OptimalGbps(sch, tdns)
	// (6*10 + 1*100) * 180/200 / 7 = 160/7 * 0.9 = 20.57 Gbps.
	want := (6.0*10 + 100) * 0.9 / 7
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("optimal Gbps = %v, want %v", got, want)
	}
}

// walkOptimalBytes is the definition the cursor must reproduce bit for bit:
// every slot from t = 0, one Schedule.At per slot, each contributing its own
// integer Rate.BytesIn. It is O(t) and stays here as the reference.
func walkOptimalBytes(sch *rdcn.Schedule, tdns []rdcn.TDNParams, t sim.Time) int64 {
	var total int64
	for cur := sim.Time(0); cur < t; {
		tdn, ok, end := sch.At(cur)
		if end > t {
			end = t
		}
		if ok {
			total += tdns[tdn].Rate.BytesIn(end.Sub(cur))
		}
		cur = end
	}
	return total
}

// fuzzSchedule derives a schedule of 1-12 slots over four TDNs from seed:
// nights anywhere (possibly adjacent, possibly first), nanosecond-granular
// durations, and always at least one day.
func fuzzSchedule(seed int64) (*rdcn.Schedule, []rdcn.TDNParams) {
	rng := rand.New(rand.NewSource(seed))
	tdns := []rdcn.TDNParams{
		{Rate: 10 * sim.Gbps}, {Rate: 100 * sim.Gbps}, {Rate: 25 * sim.Gbps}, {Rate: 7 * sim.Mbps},
	}
	slots := make([]rdcn.Slot, 1+rng.Intn(12))
	for i := range slots {
		slots[i] = rdcn.Slot{TDN: rng.Intn(len(tdns)+1) - 1, Dur: sim.Dur(1 + rng.Int63n(int64(300*sim.Microsecond)))}
	}
	slots[rng.Intn(len(slots))].TDN = rng.Intn(len(tdns))
	return rdcn.MustSchedule(slots), tdns
}

// FuzzOptimalSeries pins the one-pass series and the week-jumping
// OptimalBytes to the slot-by-slot walk: equal values, exact sizing.
func FuzzOptimalSeries(f *testing.F) {
	f.Add(int64(1), int64(0), int64(1_400_000), int64(5_000))            // the paper's cadence from t = 0
	f.Add(int64(2), int64(4_200_077), int64(9_999_999), int64(7_001))    // from mid-slot, step divides nothing
	f.Add(int64(3), int64(123_456), int64(40_000_000), int64(9_000_001)) // steps longer than a week
	f.Add(int64(4), int64(5_000_000), int64(-1), int64(5_000))           // from > to: empty
	f.Add(int64(5), int64(777), int64(0), int64(1))                      // one sample
	f.Add(int64(6), int64(0), int64(2_000_000), int64(1))                // capped sample count
	f.Fuzz(func(t *testing.T, seed, fromNs, spanNs, stepNs int64) {
		sch, tdns := fuzzSchedule(seed)
		// Keep the O(t) reference affordable: the window ends within 64 weeks
		// and holds at most 4096 samples.
		horizon := 64 * int64(sch.Week())
		from := sim.Time(((fromNs % horizon) + horizon) % horizon)
		to := from.Add(sim.Dur(spanNs % horizon))
		step := sim.Dur(stepNs)
		if step <= 0 {
			step = 1 - step
		}
		if min := to.Sub(from) / 4096; step <= min {
			step = min + 1
		}

		s := OptimalSeries(sch, tdns, from, to, step)
		want := 0
		if from <= to {
			want = int(to.Sub(from)/step) + 1
		}
		if s.Len() != want || len(s.V) != want || cap(s.T) != want || cap(s.V) != want {
			t.Fatalf("len %d/%d cap %d/%d, want %d samples sized exactly",
				len(s.T), len(s.V), cap(s.T), cap(s.V), want)
		}
		for i, at := 0, from; i < want; i, at = i+1, at.Add(step) {
			if ref := float64(walkOptimalBytes(sch, tdns, at)); s.V[i] != ref || s.T[i] != at.Microseconds() {
				t.Fatalf("sample %d at %v = (%v, %v), walk gives (%v, %v)",
					i, at, s.T[i], s.V[i], at.Microseconds(), ref)
			}
		}
		for _, at := range []sim.Time{from, to, sim.Time(horizon), -from} {
			if got, ref := OptimalBytes(sch, tdns, at), walkOptimalBytes(sch, tdns, at); got != ref {
				t.Fatalf("OptimalBytes(%v) = %d, slot-by-slot walk gives %d", at, got, ref)
			}
		}
	})
}

// TestOptimalSeriesLinear guards the cost contract: the reference series of
// a 2048-week window at the default 5 µs cadence is one pass over ≈573 k
// samples and ≈29 k slots, milliseconds of work. Re-walking the schedule
// from t = 0 per sample needs over a minute for the same window, so the 2 s
// limit is far from both and no scheduling hiccup can cross it.
func TestOptimalSeriesLinear(t *testing.T) {
	sch, tdns := params()
	from := sim.Time(3 * sch.Week())
	to := from.Add(2048 * sch.Week())
	begin := time.Now()
	s := OptimalSeries(sch, tdns, from, to, 5*sim.Microsecond)
	if d := time.Since(begin); d > 2*time.Second {
		t.Fatalf("OptimalSeries over 2048 weeks took %v: cost is no longer linear in the window", d)
	}
	if want := float64(OptimalBytes(sch, tdns, to)); s.Last() != want {
		t.Fatalf("last sample %v, OptimalBytes(to) = %v", s.Last(), want)
	}
}
