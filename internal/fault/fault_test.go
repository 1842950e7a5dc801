package fault

import (
	"reflect"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/netem"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		want Plan
	}{
		{"", Plan{}},
		{"nloss=0.1", Plan{NotifyLoss: 0.1}},
		{"nloss=0.05,ndup=0.02,ndelay=3us", Plan{NotifyLoss: 0.05, NotifyDup: 0.02, NotifyDelay: 3 * sim.Microsecond}},
		{"drop=0.01,corrupt=0.02,reorder=0.03,rdelay=40us,burst=4",
			Plan{Drop: 0.01, Corrupt: 0.02, Reorder: 0.03, ReorderDelay: 40 * sim.Microsecond, Burst: 4}},
		{"flaps=2,flapfrac=0.5,drift=2us,resizefail=0.1",
			Plan{Flaps: 2, FlapFrac: 0.5, Drift: 2 * sim.Microsecond, ResizeFail: 0.1}},
		{" nloss=1 , drop=0 ", Plan{NotifyLoss: 1}},
	}
	for _, c := range cases {
		got, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}

	bad := []string{
		"nloss", "nloss=1.5", "nloss=-0.1", "drop=x", "ndelay=-3us",
		"ndelay=17", "burst=-1", "burst=9999999", "flaps=-2",
		"flapfrac=1", "flapfrac=1.2", "wat=1", "drift=1x",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted invalid spec", spec)
		}
	}
}

// TestParseRefusesWhatItCannotRun: NaN passes a plain range check, so it
// would parse into a plan that Enabled reads as off; a duration past the
// ceiling would overflow the injector's draws (drift's 2·Drift+1 panics
// Int63n). Parse refuses both, on every key of their kind.
func TestParseRefusesWhatItCannotRun(t *testing.T) {
	var specs []string
	for _, k := range []string{"nloss", "ndup", "drop", "corrupt", "reorder", "flapfrac", "resizefail"} {
		specs = append(specs, k+"=NaN", k+"=nan")
	}
	for _, k := range []string{"ndelay", "rdelay", "drift"} {
		specs = append(specs, k+"=2000000h", k+"=61m")
	}
	for _, spec := range specs {
		if p, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) = %+v, want an error", spec, p)
		}
	}
	if p, err := Parse("ndelay=1h,rdelay=1h,drift=1h"); err != nil || p.Drift != 3600*sim.Second {
		t.Errorf("Parse at the ceiling = %+v, %v", p, err)
	}
}

func TestPlanEnabled(t *testing.T) {
	if (&Plan{}).Enabled() {
		t.Error("zero plan reports enabled")
	}
	for _, p := range []Plan{
		{NotifyLoss: 0.1}, {NotifyDup: 0.1}, {NotifyDelay: sim.Microsecond},
		{Drop: 0.1}, {Corrupt: 0.1}, {Reorder: 0.1},
		{Flaps: 1}, {Drift: sim.Microsecond}, {ResizeFail: 0.1},
	} {
		if !p.Enabled() {
			t.Errorf("%+v reports disabled", p)
		}
	}
	// Burst and ReorderDelay only shape other faults; alone they are inert.
	if (&Plan{Burst: 5, ReorderDelay: sim.Microsecond}).Enabled() {
		t.Error("shaping-only plan reports enabled")
	}
}

// TestDrawDeterminism replays the same hook-call sequence against two
// injectors with the same seed: every fate must match. A third injector with
// a different seed must diverge somewhere (or the "randomness" is constant).
func TestDrawDeterminism(t *testing.T) {
	plan := Plan{
		NotifyLoss: 0.3, NotifyDup: 0.2, NotifyDelay: 5 * sim.Microsecond,
		Drop: 0.2, Corrupt: 0.1, Reorder: 0.2, Burst: 3,
		ResizeFail: 0.3,
	}
	draw := func(seed int64) (nf []rdcn.NotifyFate, ff []netem.FrameFate, rf []bool) {
		inj := New(sim.NewLoop(1), plan, seed)
		for i := 0; i < 200; i++ {
			nf = append(nf, inj.notifyFault(i%2, i%16, i%3, uint32(i)))
			ff = append(ff, inj.frameFault(netem.Frame{}))
			rf = append(rf, inj.resizeFault(i%2, i%16, 50))
		}
		return
	}
	n1, f1, r1 := draw(7)
	n2, f2, r2 := draw(7)
	if !reflect.DeepEqual(n1, n2) || !reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(r1, r2) {
		t.Fatal("same seed produced different fault draws")
	}
	n3, f3, _ := draw(8)
	if reflect.DeepEqual(n1, n3) && reflect.DeepEqual(f1, f3) {
		t.Fatal("different seeds produced identical fault draws")
	}
}

// TestFlapPlanningDeterminism checks that flap windows are planned up front
// from the seed alone — the same (plan, seed, schedule) always darkens the
// same days.
func TestFlapPlanningDeterminism(t *testing.T) {
	plan := Plan{Flaps: 3, FlapFrac: 0.25}
	windows := func(seed int64) []flapWindow {
		loop := sim.NewLoop(1)
		net, err := rdcn.New(loop, rdcn.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		inj := New(loop, plan, seed)
		inj.Install(net)
		inj.planFlaps(sim.Time(10 * net.Cfg.Schedule.Week()))
		return inj.flaps
	}
	w1, w2 := windows(3), windows(3)
	if !reflect.DeepEqual(w1, w2) {
		t.Fatalf("same seed planned different flaps: %v vs %v", w1, w2)
	}
	if len(w1) != 3 {
		t.Fatalf("planned %d flap windows, want 3", len(w1))
	}
	for _, w := range w1 {
		if w.to <= w.from {
			t.Fatalf("empty flap window %+v", w)
		}
		if tdn, ok, _ := windowsSchedule(t).At(w.from); !ok || tdn != w.tdn {
			t.Fatalf("flap window %+v does not start on its day", w)
		}
	}
}

func windowsSchedule(t *testing.T) *rdcn.Schedule {
	t.Helper()
	return rdcn.DefaultConfig().Schedule
}

// TestStartBeforeInstallPanics pins the usage contract.
func TestStartBeforeInstallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Start before Install did not panic")
		}
	}()
	New(sim.NewLoop(1), Plan{Flaps: 1}, 1).Start(sim.Time(sim.Second))
}
