package experiments

import (
	"testing"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

// TestSteadyStateDoesNotAllocate is the allocation contract of the hot path
// (DESIGN.md §10), checked on what Run executes: newRunHarness is Run's own
// set-up — the loop and network with the default flight recorder attached
// and the 16 TDTCP flows — so only the measurement-window samplers
// are missing (their series grow by design). Once the pools, slabs, chunk lists and scratch buffers
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
			if _, _, _, err := h.finish(); err != nil {
				t.Error(err)
			}
		})
	}
}
