// Package fault is the deterministic fault-injection subsystem of the
// reproduction: it perturbs the RDCN control plane (ICMP TDN-change
// notification loss, duplication, extra delay), the data plane (frame drop,
// corruption and reordering bursts on the shared host NIC pipes), the
// optical fabric itself (circuit flaps, schedule drift), and the retcpdyn
// VOQ resizing — all without the perturbed layers knowing who is deciding:
// netem and rdcn expose passive hook points, and this package owns every
// coin flip.
//
// Determinism is the design center. The injector draws from its own
// rand.Rand (seeded by the -faultseed flag, independent of the simulation
// seed), and every decision happens at a fixed point in the single-threaded
// event order, so two runs with the same (seed, faultseed, plan) triple
// replay byte-identically — the property the trace-diff acceptance test
// pins. Every injected fault emits a trace.CatFault event and bumps a
// "fault.*" counter, so a post-mortem can correlate a TCP anomaly with the
// exact fault that caused it.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/rdcn-net/tdtcp/internal/netem"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// Plan declares which faults to inject and how hard. The zero value injects
// nothing. Probabilities are per-decision (per notification, per frame);
// durations bound uniform draws.
type Plan struct {
	// Control plane: per-host TDN-change notification faults.
	NotifyLoss  float64 // P(notification never delivered)
	NotifyDup   float64 // P(a duplicate copy is also delivered)
	NotifyDelay sim.Dur // extra delivery delay, uniform [0, NotifyDelay)

	// Data plane: per-frame faults on the rack ingress NIC pipes.
	Drop         float64 // P(frame dropped)
	Corrupt      float64 // P(one wire byte flipped; receiver checksum drops it)
	Reorder      float64 // P(frame held back by an extra delay)
	ReorderDelay sim.Dur // extra hold-back bound (default 20µs when unset)
	Burst        int     // a triggered drop extends to this many consecutive frames

	// Fabric: circuit flaps and schedule drift.
	Flaps    int     // number of day slots whose circuit misbehaves
	FlapFrac float64 // 0 = day never comes up; f∈(0,1) = circuit dies after f of the day
	Drift    sim.Dur // per-week data-plane schedule offset, uniform [-Drift, +Drift]

	// Control plane: retcpdyn VOQ-resize failures.
	ResizeFail float64 // P(one queue silently ignores a recapping)
}

// Enabled reports whether the plan injects anything at all.
func (p *Plan) Enabled() bool {
	return p.NotifyLoss > 0 || p.NotifyDup > 0 || p.NotifyDelay > 0 ||
		p.Drop > 0 || p.Corrupt > 0 || p.Reorder > 0 ||
		p.Flaps > 0 || p.Drift > 0 || p.ResizeFail > 0
}

// Parse builds a plan from the -fault flag's compact key=value spec, e.g.
// "nloss=0.1,drop=0.01,flaps=2". Keys:
//
//	nloss, ndup       notification loss / duplication probability
//	ndelay            notification extra-delay bound (Go duration)
//	drop, corrupt     frame drop / corruption probability
//	reorder, rdelay   frame reordering probability / hold-back bound
//	burst             consecutive frames per triggered drop
//	flaps, flapfrac   flapped day count / fraction of the day survived
//	drift             per-week schedule drift bound (Go duration)
//	resizefail        VOQ-resize failure probability
//
// A probability must lie in [0, 1] (NaN is refused) and a duration in
// [0, 1h]: maxDur, far above any schedule week, keeps every draw the
// injector makes from a duration (drift's 2·Drift+1 included) inside int64.
func Parse(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return p, fmt.Errorf("fault: spec entry %q is not key=value", kv)
		}
		var err error
		switch k {
		case "nloss":
			p.NotifyLoss, err = parseProb(v)
		case "ndup":
			p.NotifyDup, err = parseProb(v)
		case "ndelay":
			p.NotifyDelay, err = parseDur(v)
		case "drop":
			p.Drop, err = parseProb(v)
		case "corrupt":
			p.Corrupt, err = parseProb(v)
		case "reorder":
			p.Reorder, err = parseProb(v)
		case "rdelay":
			p.ReorderDelay, err = parseDur(v)
		case "burst":
			p.Burst, err = strconv.Atoi(v)
			if err == nil && (p.Burst < 0 || p.Burst > 1<<20) {
				err = fmt.Errorf("out of range")
			}
		case "flaps":
			p.Flaps, err = strconv.Atoi(v)
			if err == nil && p.Flaps < 0 {
				err = fmt.Errorf("negative")
			}
		case "flapfrac":
			p.FlapFrac, err = parseProb(v)
			if err == nil && p.FlapFrac >= 1 {
				err = fmt.Errorf("must be below 1")
			}
		case "drift":
			p.Drift, err = parseDur(v)
		case "resizefail":
			p.ResizeFail, err = parseProb(v)
		default:
			return p, fmt.Errorf("fault: unknown spec key %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("fault: spec %s=%q: %v", k, v, err)
		}
	}
	return p, nil
}

// maxDur is the largest duration Parse accepts for any key.
const maxDur = 3600 * sim.Second

func parseProb(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(f >= 0 && f <= 1) {
		return 0, fmt.Errorf("probability outside [0,1]")
	}
	return f, nil
}

func parseDur(v string) (sim.Dur, error) {
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, err
	}
	if d < 0 || sim.Dur(d.Nanoseconds()) > maxDur {
		return 0, fmt.Errorf("duration outside [0,1h]")
	}
	return sim.Dur(d.Nanoseconds()), nil
}

// Stats counts faults actually injected (as opposed to planned).
type Stats struct {
	NotifyDropped   uint64
	NotifyDuped     uint64
	NotifyDelayed   uint64
	FramesDropped   uint64
	FramesCorrupted uint64
	FramesDelayed   uint64
	CircuitFlaps    uint64
	ResizeFailures  uint64
}

// flapWindow is a planned dark interval of one scheduled day.
type flapWindow struct {
	from, to sim.Time
	tdn      int
}

// Injector drives a Plan against one rdcn.Network. Construct with New,
// attach observability with SetTracer/SetMetrics, wire the hooks with
// Install, then call Start (before running the loop) to plan the
// time-scheduled faults.
type Injector struct {
	loop *sim.Loop
	plan Plan
	rng  *rand.Rand

	tracer  *trace.Tracer
	metrics *trace.Registry

	net       *rdcn.Network
	flaps     []flapWindow
	drift     []sim.Dur // per-week data-plane offsets
	week      sim.Dur
	burstLeft int

	stats Stats
}

// New returns an injector for plan whose randomness is seeded by seed —
// independently of the simulation seed, so the same workload can be swept
// across fault realizations (and vice versa).
func New(loop *sim.Loop, plan Plan, seed int64) *Injector {
	return &Injector{loop: loop, plan: plan, rng: rand.New(rand.NewSource(seed))}
}

// Stats returns the counts of faults injected so far.
func (inj *Injector) Stats() Stats { return inj.stats }

// Plan returns the injector's plan.
func (inj *Injector) Plan() Plan { return inj.plan }

// SetTracer attaches a tracer; injected faults emit trace.CatFault events.
func (inj *Injector) SetTracer(tr *trace.Tracer) { inj.tracer = tr }

// SetMetrics attaches a registry; injected faults bump "fault.*" counters.
func (inj *Injector) SetMetrics(reg *trace.Registry) { inj.metrics = reg }

// emit reports a CatFault event (flow -1: faults are network-level).
func (inj *Injector) emit(name string, tdn int, a, b float64) {
	if inj.tracer.Enabled(trace.CatFault) {
		inj.tracer.Emit(trace.CatFault, int64(inj.loop.Now()), name, -1, tdn, a, b, "")
	}
}

// count bumps one injected-fault counter in the attached registry.
func (inj *Injector) count(name string) {
	inj.metrics.Add("fault."+name, 1)
}

// Install wires the plan's hooks into the network: notification faults and
// resize failures into the control plane, frame faults onto every rack's
// ingress pipe, flaps and drift into the data plane's schedule view. Hooks
// for disabled fault classes are left nil, so they cost nothing.
func (inj *Injector) Install(n *rdcn.Network) {
	inj.net = n
	p := &inj.plan
	if p.NotifyLoss > 0 || p.NotifyDup > 0 || p.NotifyDelay > 0 {
		n.Cfg.NotifyFault = inj.notifyFault
	}
	if p.Drop > 0 || p.Corrupt > 0 || p.Reorder > 0 {
		for _, rack := range n.Racks {
			rack.Uplink().Fault = inj.frameFault
		}
	}
	if p.Flaps > 0 {
		n.Cfg.CircuitOK = inj.circuitOK
	}
	if p.Drift > 0 {
		inj.week = n.Cfg.Schedule.Week()
		n.Cfg.ScheduleOffset = inj.scheduleOffset
	}
	if p.ResizeFail > 0 {
		n.Cfg.ResizeFault = inj.resizeFault
	}
}

// Start plans the time-scheduled faults (circuit flaps, schedule drift) for
// the run [0, until). Call after Install and before running the loop; the
// planning draws happen here, up front, so they do not depend on workload
// event interleaving.
func (inj *Injector) Start(until sim.Time) {
	if inj.net == nil {
		panic("fault: Start before Install")
	}
	inj.planFlaps(until)
	inj.planDrift(until)
}

// --- control-plane faults --------------------------------------------------

func (inj *Injector) notifyFault(rack, host, tdn int, epoch uint32) rdcn.NotifyFate {
	p := &inj.plan
	var fate rdcn.NotifyFate
	if p.NotifyLoss > 0 && inj.rng.Float64() < p.NotifyLoss {
		fate.Drop = true
		inj.stats.NotifyDropped++
		inj.count("notify_dropped")
		inj.emit("notify_drop", tdn, float64(rack), float64(host))
	}
	if p.NotifyDelay > 0 && !fate.Drop {
		fate.Extra = sim.Dur(inj.rng.Int63n(int64(p.NotifyDelay)))
		if fate.Extra > 0 {
			inj.stats.NotifyDelayed++
			inj.count("notify_delayed")
			inj.emit("notify_delay", tdn, float64(rack*1000+host), float64(fate.Extra))
		}
	}
	if p.NotifyDup > 0 && inj.rng.Float64() < p.NotifyDup {
		fate.Dup = true
		// The duplicate trails the original: it arrives as an exact replay
		// of an already-applied epoch, exercising the receiver's dup gate.
		fate.DupExtra = fate.Extra + 2*sim.Microsecond
		if p.NotifyDelay > 0 {
			fate.DupExtra += sim.Dur(inj.rng.Int63n(int64(p.NotifyDelay)))
		}
		inj.stats.NotifyDuped++
		inj.count("notify_duplicated")
		inj.emit("notify_dup", tdn, float64(rack*1000+host), float64(fate.DupExtra))
	}
	return fate
}

func (inj *Injector) resizeFault(rack, q, newCap int) bool {
	if inj.rng.Float64() >= inj.plan.ResizeFail {
		return false
	}
	inj.stats.ResizeFailures++
	inj.count("resize_failures")
	inj.emit("resize_fail", -1, float64(rack), float64(q))
	return true
}

// --- data-plane frame faults -----------------------------------------------

func (inj *Injector) frameFault(f netem.Frame) netem.FrameFate {
	p := &inj.plan
	var fate netem.FrameFate
	switch {
	case inj.burstLeft > 0:
		inj.burstLeft--
		fate.Drop = true
	case p.Drop > 0 && inj.rng.Float64() < p.Drop:
		fate.Drop = true
		if p.Burst > 1 {
			inj.burstLeft = p.Burst - 1
		}
	case p.Corrupt > 0 && inj.rng.Float64() < p.Corrupt:
		fate.Corrupt = true
	case p.Reorder > 0 && inj.rng.Float64() < p.Reorder:
		bound := p.ReorderDelay
		if bound <= 0 {
			bound = 20 * sim.Microsecond
		}
		fate.Extra = sim.Dur(1 + inj.rng.Int63n(int64(bound)))
	}
	switch {
	case fate.Drop:
		inj.stats.FramesDropped++
		inj.count("frames_dropped")
		inj.emit("frame_drop", -1, float64(f.Len), float64(inj.burstLeft))
	case fate.Corrupt:
		inj.stats.FramesCorrupted++
		inj.count("frames_corrupted")
		inj.emit("frame_corrupt", -1, float64(f.Len), 0)
	case fate.Extra > 0:
		inj.stats.FramesDelayed++
		inj.count("frames_delayed")
		inj.emit("frame_delay", -1, float64(f.Len), float64(fate.Extra))
	}
	return fate
}

// --- fabric faults ---------------------------------------------------------

// planFlaps picks Plan.Flaps distinct day slots in [0, until) and plans a
// dark window over each: the whole day with FlapFrac 0 (the circuit never
// comes up), its tail with FlapFrac f (it dies early). Notifications still
// announce the day — that control/data disagreement is the point.
func (inj *Injector) planFlaps(until sim.Time) {
	if inj.plan.Flaps <= 0 {
		return
	}
	sched := inj.net.Cfg.Schedule
	type day struct {
		start, end sim.Time
		tdn        int
	}
	var days []day
	for t := sim.Time(0); t < until; {
		tdn, ok, end := sched.At(t)
		if ok {
			days = append(days, day{t, end, tdn})
		}
		t = end
	}
	k := inj.plan.Flaps
	if k > len(days) {
		k = len(days)
	}
	// Partial Fisher-Yates: the first k entries become a uniform sample
	// without replacement.
	idx := make([]int, len(days))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + inj.rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	chosen := append([]int(nil), idx[:k]...)
	sort.Ints(chosen)
	for _, di := range chosen {
		d := days[di]
		from := d.start
		if f := inj.plan.FlapFrac; f > 0 {
			from = d.start.Add(sim.Dur(f * float64(d.end.Sub(d.start))))
		}
		w := flapWindow{from: from, to: d.end, tdn: d.tdn}
		inj.flaps = append(inj.flaps, w)
		inj.loop.At(w.from, func() {
			inj.stats.CircuitFlaps++
			inj.count("circuit_flaps")
			inj.emit("flap", w.tdn, float64(w.to.Sub(w.from)), inj.plan.FlapFrac)
			// An in-progress frame finishes, then the VOQ link finds the
			// path dark; nothing to kick until the nominal day-end
			// transition.
		})
	}
}

func (inj *Injector) circuitOK(tdn int, now sim.Time) bool {
	for _, w := range inj.flaps {
		if now >= w.from && now < w.to {
			return false
		}
	}
	return true
}

// planDrift draws one data-plane schedule offset per week, uniform in
// [-Drift, +Drift], and schedules VOQ link kicks at the shifted slot
// boundaries (the nominal transitions kick at the wrong instants once the
// data plane has drifted away from them).
func (inj *Injector) planDrift(until sim.Time) {
	if inj.plan.Drift <= 0 {
		return
	}
	sched := inj.net.Cfg.Schedule
	nweeks := int(until/sim.Time(inj.week)) + 1
	for w := 0; w <= nweeks; w++ {
		off := sim.Dur(inj.rng.Int63n(2*int64(inj.plan.Drift)+1)) - inj.plan.Drift
		inj.drift = append(inj.drift, off)
		ws := sim.Time(w) * sim.Time(inj.week)
		if ws < until {
			off := off
			inj.loop.At(ws, func() {
				inj.count("drift_weeks")
				inj.emit("drift", -1, float64(off), float64(inj.week))
			})
		}
	}
	for t := sim.Time(0); t < until; {
		_, _, end := sched.At(t)
		at := end.Add(inj.scheduleOffset(end))
		if at < 0 {
			at = 0
		}
		if at < until {
			inj.loop.At(at, inj.net.KickAll)
		}
		t = end
	}
}

func (inj *Injector) scheduleOffset(now sim.Time) sim.Dur {
	if len(inj.drift) == 0 {
		return 0
	}
	w := int(now / sim.Time(inj.week))
	if w < 0 {
		w = 0
	}
	if w >= len(inj.drift) {
		w = len(inj.drift) - 1
	}
	return inj.drift[w]
}
