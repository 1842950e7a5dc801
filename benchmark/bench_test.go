package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/serve"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// smokeLine is the driver-facing last line of a run's stdout.
type smokeLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// smoke runs the program in-process at smoke size, exactly as the command
// line would, and returns its last line and its result file.
func smoke(t *testing.T, workload string, seed int64, traced bool) (smokeLine, workloadResult) {
	t.Helper()
	dir := t.TempDir()
	trace := "0"
	if traced {
		trace = "1"
	}
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "1", "--trace", trace,
		"-smoke", "-outdir", dir}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line smokeLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	var rf resultFile
	if err := readJSON(filepath.Join(dir, resultName(workload, traced)), &rf); err != nil {
		t.Fatal(err)
	}
	if traced {
		if _, err := os.Stat(filepath.Join(dir, workload+".spans.json")); err != nil {
			t.Errorf("traced run left no span file: %v", err)
		}
	}
	return line, rf.Workloads[0]
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclaredNames: BENCHMARK.json, the program's metric tables and what
// the program actually prints are one and the same set.
func TestDeclaredNames(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Paths) != 1 || strings.TrimSuffix(bj.Paths[0], "/") != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	check := func(kind string, declared []jsonMetric, table []metricDef, bounded bool) {
		if len(declared) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(declared), len(table))
			return
		}
		for i, d := range table {
			j := declared[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %s/%s/%s", kind, i, j, d.Name, d.Unit, d.Better)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: name %q is outside the allowed alphabet", kind, d.Name)
			}
			switch {
			case bounded && (j.Bound == nil || *j.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound in BENCHMARK.json %v, in the program %v (must be in (0, 0.25])", kind, d.Name, j.Bound, d.Bound)
			case !bounded && j.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing from end_to_end")
	}

	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			line, res := smoke(t, w, 1, traced)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, declared %d", w, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := line.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not printed", w, traced, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s traced=%v: %s printed in %q, declared %q", w, traced, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", w, d.Name, m.Value)
				}
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 || res.Workload != w {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v",
					w, traced, line.Correct, line.Attempted, line.Failed, res.Notes)
			}
		}
	}
}

// simRuns holds one workload's seed-1 smoke repetitions under each degree of
// observation, shared by the two determinism tests.
type simRuns struct{ bare, counted, observed simOut }

var cachedSimRuns = map[string]simRuns{}

func simRunsOnce(w simWorkload) simRuns {
	r, ok := cachedSimRuns[w.name]
	if !ok {
		r = simRuns{
			bare:     w.run(smokeSizes, 1, nil),
			counted:  w.run(smokeSizes, 1, &observation{reg: trace.NewRegistry()}),
			observed: w.run(smokeSizes, 1, newObservation()),
		}
		cachedSimRuns[w.name] = r
	}
	return r
}

// TestSameSeedSameDigest: two runs of one seed agree on the digest and on
// every count; another seed gives another digest.
func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range simWorkloads {
		a := simRunsOnce(w).observed
		b := w.run(smokeSizes, 1, newObservation())
		if a.digest == "" || a.digest != b.digest {
			t.Errorf("%s: digests of two seed-1 runs: %q vs %q", w.name, a.digest, b.digest)
		}
		if len(a.counts) < 15 {
			t.Errorf("%s: only %d counts compared", w.name, len(a.counts))
		}
		for name, v := range a.counts {
			if b.counts[name] != v {
				t.Errorf("%s: %s = %v then %v with the same seed", w.name, name, v, b.counts[name])
			}
		}
		if c := w.run(smokeSizes, 2, nil); c.digest == a.digest {
			t.Errorf("%s: seed 2 gave seed 1's digest", w.name)
		}
	}

	sz := smokeSizes
	rep := func(seed int64) (string, map[string]float64) {
		out := serveRep(sz, serveSpecs(sz, seed, serveClients*sz.missPerClient, 0), nil, nil, 0)
		if out.failed > 0 {
			t.Fatalf("serve_jobs seed %d: %v", seed, out.notes)
		}
		return out.digest, serveCounts(out.outcomes)
	}
	da, ca := rep(1)
	db, cb := rep(1)
	if da != db {
		t.Errorf("serve_jobs: digests of two seed-1 runs: %q vs %q", da, db)
	}
	if ca["sim.events_fired"] == 0 || fmt.Sprint(ca) != fmt.Sprint(cb) {
		t.Errorf("serve_jobs: counts differ with the same seed:\n%v\n%v", ca, cb)
	}
	if dc, _ := rep(2); dc == da {
		t.Error("serve_jobs: seed 2 gave seed 1's digest")
	}
}

// TestObservationDoesNotPerturb: the result digest is the same with a
// tracer, a metrics registry and a meter attached as with nothing attached,
// and the event count — readable only through a registry — is the same with
// the registry alone as with all three. This is what lets the counts of the
// traced pass describe the untraced one.
func TestObservationDoesNotPerturb(t *testing.T) {
	for _, w := range simWorkloads {
		r := simRunsOnce(w)
		if r.bare.failed+r.counted.failed+r.observed.failed > 0 {
			t.Fatalf("%s: failures: %v %v %v", w.name, r.bare.notes, r.counted.notes, r.observed.notes)
		}
		if r.bare.digest != r.observed.digest || r.bare.digest != r.counted.digest {
			t.Errorf("%s: digest bare %s, registry only %s, fully observed %s",
				w.name, r.bare.digest, r.counted.digest, r.observed.digest)
		}
		a, b := r.counted.counts["sim.events_fired"], r.observed.counts["sim.events_fired"]
		if a == 0 || a != b {
			t.Errorf("%s: sim.events_fired %v with a registry alone, %v fully observed", w.name, a, b)
		}
		if r.observed.counts["trace.events"] == 0 {
			t.Errorf("%s: the observed run traced nothing", w.name)
		}
	}
}

// stubRunner answers instantly, so the failure tests exercise the
// accounting, not the simulator.
func stubRunner(req *serve.Request) (*serve.Outcome, error) {
	if req.Spec.Variant == "reno" {
		panic("stub runner: boom")
	}
	return &serve.Outcome{Kind: req.Spec.Kind, Variant: req.Spec.Variant, GoodputGbps: 1}, nil
}

// TestFailuresAreCounted: a spec the service rejects (HTTP 400), a runner
// that panics, and a digest mismatch each raise failed_frac, and none of them
// drops out of the attempted count or the latency samples.
func TestFailuresAreCounted(t *testing.T) {
	sz := smokeSizes
	sz.hitPerClient = 8
	good := serveSpecs(sz, 1, 8, 0)
	clean := serveRep(sz, good, stubRunner, nil, 0)
	if clean.failed != 0 || clean.ops != 8+2*8 {
		t.Fatalf("clean run: %d failed of %d: %v", clean.failed, clean.ops, clean.notes)
	}

	for name, bad := range map[string]serve.Spec{
		"rejected spec":    {Variant: "no-such-transport"},
		"panicking runner": {Variant: "reno"},
	} {
		specs := append(append([]serve.Spec{}, good...), bad)
		out := serveRep(sz, specs, stubRunner, nil, 0)
		// 9 miss jobs (5 + 4 per client, padded to 5 each = 10 attempts) ...
		wantOps := 2*((len(specs)+1)/2) + 2*sz.hitPerClient
		if out.ops != wantOps || len(out.missMs)+len(out.hitUs) != wantOps {
			t.Errorf("%s: %d ops and %d+%d latencies, want %d of each", name, out.ops, len(out.missMs), len(out.hitUs), wantOps)
		}
		if out.failed == 0 {
			t.Errorf("%s: not counted as a failure", name)
		}
		res := &workloadResult{}
		res.recordServe(&out, func(string, float64) {}, sz)
		ms := newMetricSet()
		res.finish(ms, untracedDefs)
		if ms.get("failed_frac") <= 0 || res.Correct {
			t.Errorf("%s: failed_frac %v, correct %v", name, ms.get("failed_frac"), res.Correct)
		}
	}

	if n := digestMismatches([]string{"a", "b", "a"}); n != 1 {
		t.Errorf("digestMismatches = %d, want 1", n)
	}
	res := &workloadResult{Attempted: 3, Failed: digestMismatches([]string{"a", "b", "a"})}
	ms := newMetricSet()
	res.finish(ms, untracedDefs)
	if res.Correct || res.Attempted != 3 || ms.get("failed_frac") != 1.0/3 {
		t.Errorf("digest mismatch: correct %v attempted %d failed_frac %v", res.Correct, res.Attempted, ms.get("failed_frac"))
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{999, 99, 0}, {1000, 99, 990}, {199, 95, 0}, {200, 95, 190},
		{19, 50, 0}, {20, 50, 10}, {99, 10, 0}, {100, 10, 10},
	} {
		got, err := percentile(seq(c.n), c.p)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("p%g of %d samples: accepted (%v), want refusal", c.p, c.n, got)
		case c.want != 0 && (err != nil || got != c.want):
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, rate []float64, goodput float64, failed int) string {
		ms := newMetricSet()
		ms.setMedian("sim_weeks_per_sec", rate)
		ms.set("sim_goodput_gbps", goodput)
		r := workloadResult{Workload: "hybrid_tdtcp_long", Digest: "d", Attempted: 3, Failed: failed}
		r.finish(ms, untracedDefs)
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultFile{Seed: 1, Workloads: []workloadResult{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("base.json", []float64{100, 101, 99}, 19.3, 0)
	for _, c := range []struct {
		name, path string
		code       int
		says       string
	}{
		{"same", file("same.json", []float64{99, 100, 100.5}, 19.3, 0), 0, "0 worse, 0 unresolved"},
		{"slower", file("slower.json", []float64{60, 61, 59}, 19.3, 0), 1, "worse"},
		{"noisy", file("noisy.json", []float64{70, 95, 120}, 19.3, 0), 0, "unresolved"},
		{"faster", file("faster.json", []float64{130, 131, 129}, 19.3, 0), 0, "0 worse, 0 unresolved"},
		{"other simulation", file("sim.json", []float64{100, 101, 99}, 18.9, 0), 1, "sim_goodput_gbps"},
		{"failures", file("fail.json", []float64{100, 101, 99}, 19.3, 1), 1, "failed_frac"},
	} {
		var out, errb bytes.Buffer
		code := compareFiles(base, c.path, &out, &errb)
		if code != c.code || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s%s", c.name, code, c.code, c.says, out.String(), errb.String())
		}
	}
}
