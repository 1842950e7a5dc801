// Command benchmark is the repository's benchmark: four workloads driven
// through the entry points users run (experiments.Run, experiments.Sweep,
// experiments.RunWorkload at Shards=1 with the default flight recorder, and
// serve.Handler over loopback HTTP), end-to-end metrics from an untraced
// pass, and a traced pass that adds per-layer counts, a ns/op ladder of each
// layer driven alone, observer overheads and a wall-time attribution.
// README.md in this directory is the manual.
//
//	go run ./benchmark -workload NAME -seed S -seconds N -trace 0|1
//	go run ./benchmark -seed S            # every workload, one process each
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// processStart is as early as this package can read the clock; setup_s
// counts from here.
var processStart = time.Now()

// defaultSeconds is BENCHMARK.json's run_seconds: the measuring budget of
// one run when -seconds is not given.
const defaultSeconds = 24

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	outdir   string
}

func (o options) sizes() sizes {
	if o.smoke {
		return smokeSizes
	}
	return fullSizes
}

var workloadNames = []string{"hybrid_tdtcp_long", "hybrid_variants_sweep", "rotor_websearch", "serve_jobs"}

// workloadResult is one workload's outcome: what the result file stores and
// -compare reads.
type workloadResult struct {
	Workload  string        `json:"workload"`
	Digest    string        `json:"digest"`
	Correct   bool          `json:"correct"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Reps      int           `json:"repetitions"`
	Notes     []string      `json:"notes,omitempty"`
	Metrics   []metricValue `json:"metrics"`
}

// resultFile is what a run leaves in -outdir.
type resultFile struct {
	Seed      int64            `json:"seed"`
	Traced    bool             `json:"traced"`
	Smoke     bool             `json:"smoke,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var traced, compare bool
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all, one process each)")
	fs.Int64Var(&o.seed, "seed", 1, "derives every simulation and spec seed")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measuring budget: repetitions of fixed work are started while they fit (at least 2)")
	fs.IntVar(&trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.BoolVar(&traced, "traced", false, "same as -trace 1")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes (for go test); numbers mean nothing")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	fs.StringVar(&o.outdir, "outdir", filepath.Join("benchmark", "out"), "where result and span files go")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if trace != 0 && trace != 1 || fs.NArg() != 0 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -trace is 0 or 1, -seconds is positive, and there are no positional arguments")
		return 2
	}
	o.traced = traced || trace == 1
	if err := os.MkdirAll(o.outdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.workload == "" {
		return runAll(o, args, stdout, stderr)
	}
	res, err := runOne(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(o.outdir, resultName(o.workload, o.traced)),
		resultFile{Seed: o.seed, Traced: o.traced, Smoke: o.smoke, Workloads: []workloadResult{*res}}); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printResult(stdout, o, res)
	return 0
}

func resultName(workload string, traced bool) string {
	if traced {
		return workload + ".traced.json"
	}
	return workload + ".json"
}

// runOne runs one workload in this process.
func runOne(o options, stderr io.Writer) (*workloadResult, error) {
	if o.workload == "serve_jobs" {
		return runServeWorkload(o, stderr)
	}
	for _, w := range simWorkloads {
		if w.name == o.workload {
			return runSimWorkload(o, w, stderr)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
}

// runAll re-executes this binary once per workload, so peak_rss_mb and
// setup_s are per workload, relays each child's report, and merges the
// result files into one for -compare.
func runAll(o options, args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	merged := resultFile{Seed: o.seed, Traced: o.traced, Smoke: o.smoke}
	code := 0
	for _, name := range workloadNames {
		cmd := exec.Command(exe, append(append([]string{}, args...), "-workload", name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			code = 1
			continue
		}
		var one resultFile
		if err := readJSON(filepath.Join(o.outdir, resultName(name, o.traced)), &one); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			code = 1
			continue
		}
		merged.Workloads = append(merged.Workloads, one.Workloads...)
	}
	all := "results.json"
	if o.traced {
		all = "results.traced.json"
	}
	if err := writeJSON(filepath.Join(o.outdir, all), merged); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stderr, "benchmark: wrote %s\n", filepath.Join(o.outdir, all))
	return code
}

// printResult writes the human-readable report and, last, the one-line JSON
// object the driver reads: the end-to-end metrics of an untraced pass, the
// per-layer metrics of a traced one.
func printResult(w io.Writer, o options, r *workloadResult) {
	fmt.Fprintf(w, "workload %s seed %d traced=%v repetitions %d attempted %d failed %d digest %s\n",
		r.Workload, o.seed, o.traced, r.Reps, r.Attempted, r.Failed, r.Digest)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note %s %s\n", r.Workload, n)
	}
	for _, m := range r.Metrics {
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("\tn=%d", m.N)
		}
		fmt.Fprintf(w, "metric\t%s\t%s\t%s\t%s%s\n", r.Workload, m.Name,
			strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, extra)
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	want := endToEnd
	if o.traced {
		want = perLayer
	}
	by := map[string]metricValue{}
	for _, m := range r.Metrics {
		by[m.Name] = m
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]jv{}}
	for _, d := range want {
		line.Metrics[d.Name] = jv{by[d.Name].Value, d.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
