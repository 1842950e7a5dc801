package experiments

import (
	"testing"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

// TestSteadyStateDoesNotAllocate is the allocation contract of the hot path
// (DESIGN.md §10), checked on what Run executes: newRunHarness is Run's own
// set-up — the loop and network with the default flight recorder attached
// and the 16 TDTCP flows — so only the measurement-window samplers
// are missing (TestRunAllocationIsFlatInHorizon has them). Once the pools, slabs, chunk lists and scratch buffers
// have filled — 16 optical weeks is several times what that takes — advancing
// the simulation by one more week must not allocate at all: every per-frame,
// per-ACK and per-notification object is recycled.
//
// testing.AllocsPerRun floors the average over its 64 weeks, so the pin
// tolerates the rare amortised growth of a heap or chunk list (none seen on
// the hybrid, about 15 mallocs in all on the rotor) and fails on anything
// paid per event, per frame or per week.
// startedRunHarness is Run up to the point where its event loop would start:
// the harness for cfg with the control plane armed and every flow started.
func startedRunHarness(t *testing.T, cfg RunConfig) *harness {
	t.Helper()
	cfg.fillDefaults()
	h, err := newRunHarness(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.start()
	for _, f := range h.flows {
		f.Start(-1)
	}
	return h
}

func TestSteadyStateDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on this path (thousands of mallocs per week)")
	}
	const warmWeeks, runs = 16, 64
	for _, scenario := range []Scenario{Hybrid(), MultiRack(8)} {
		t.Run(scenario.Name, func(t *testing.T) {
			// AllocsPerRun calls the function runs+1 times.
			h := startedRunHarness(t, RunConfig{Variant: TDTCP, Scenario: scenario,
				WarmupWeeks: warmWeeks, MeasureWeeks: runs + 1})
			week := scenario.Schedule.Week()
			now := sim.Time(warmWeeks * week)
			h.loop.RunUntil(now)
			fired, base := h.loop.Fired(), h.delivered()

			allocs := testing.AllocsPerRun(runs, func() {
				now = now.Add(week)
				h.loop.RunUntil(now)
			})
			if allocs != 0 {
				t.Errorf("one steady-state week costs %v allocations, want 0", allocs)
			}
			// The pin means nothing on an idle network.
			perWeek := (h.loop.Fired() - fired) / (runs + 1)
			if perWeek < 1000 {
				t.Errorf("only %d events per week: the flows are not running", perWeek)
			}
			t.Logf("%v allocations per steady-state week, %d events per week, over %d weeks", allocs, perWeek, runs+1)
			if h.delivered() == base {
				t.Error("no bytes delivered over the measured weeks")
			}
			if now != h.end {
				t.Fatalf("stopped at %v, horizon is %v", now, h.end)
			}
			if _, _, _, err := h.finish(byteLedger{written: -1}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRunAllocationIsFlatInHorizon is the allocation contract of a Run's
// result (DESIGN.md §10 "Costs that must scale with live state, not history"):
// the series a Result carries stop at PlotWeeks and the VOQ mean and max are
// running sums, so measuring 80 weeks longer allocates nothing to speak of.
// The same run is taken to 3+20 and to 3+100 weeks; the bytes a further week
// costs are the difference in runtime.MemStats.TotalAlloc over the 80 weeks.
// Keeping every sample read 18 082 B here (280 samples a week, 16 B each, four
// series).
func TestRunAllocationIsFlatInHorizon(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on this path")
	}
	measure := func(weeks int) uint64 {
		var res *Result
		var err error
		bytes, _ := allocatedBy(func() {
			res, err = Run(RunConfig{Variant: TDTCP, Scenario: Hybrid(), Flows: 16,
				WarmupWeeks: 3, MeasureWeeks: weeks, Seed: 1001})
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := PlotWeeks*280 + 1; res.Seq.Len() != want || res.VOQ.Len() != want ||
			res.Optimal.Len() != want || res.PacketOnly.Len() != want {
			t.Errorf("%d weeks: series of %d, %d, %d and %d points, want %d each", weeks,
				res.Seq.Len(), res.VOQ.Len(), res.Optimal.Len(), res.PacketOnly.Len(), want)
		}
		return bytes
	}
	short, long := measure(20), measure(100)
	perWeek := (int64(long) - int64(short)) / 80
	t.Logf("%d B for 3+20 weeks, %d B for 3+100: %d B per further week", short, long, perWeek)
	if perWeek > 256 {
		t.Errorf("a further measured week costs %d B of allocation, want at most 256", perWeek)
	}
}
