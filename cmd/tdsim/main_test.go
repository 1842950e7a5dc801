package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinary compiles tdsim once into a temp dir so the exit-code contract
// is asserted against the real process boundary, not an in-process shim.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tdsim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runSim(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), code
}

// TestUnknownFigureExitsNonZero pins the CLI error contract: an unknown -fig
// id must exit 1 with the id named on stderr, never exit 0 with empty output.
func TestUnknownFigureExitsNonZero(t *testing.T) {
	bin := buildBinary(t)
	stdout, stderr, code := runSim(t, bin, "-fig", "fig99")
	if code == 0 {
		t.Fatalf("unknown figure exited 0\nstdout: %s", stdout)
	}
	if code != 1 {
		t.Errorf("unknown figure: exit %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "fig99") {
		t.Errorf("stderr should name the unknown figure, got: %s", stderr)
	}
}

// TestNoModeExitsUsage asserts that invoking tdsim with no mode flag prints
// usage and exits 2.
func TestNoModeExitsUsage(t *testing.T) {
	bin := buildBinary(t)
	_, stderr, code := runSim(t, bin)
	if code != 2 {
		t.Fatalf("no-mode invocation: exit %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "-fig") {
		t.Errorf("usage should mention -fig, got: %s", stderr)
	}
}

// TestMultiRackFigureRuns smokes the acceptance command: the multirack figure
// on 8 racks with the websearch workload must produce a rendered figure.
func TestMultiRackFigureRuns(t *testing.T) {
	bin := buildBinary(t)
	stdout, stderr, code := runSim(t, bin,
		"-racks", "8", "-workload", "websearch", "-fig", "multirack", "-quick")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"multirack", "8-rack", "tdtcp", "cubic", "fct_"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("figure output missing %q:\n%s", want, stdout)
		}
	}
}

// TestProgressFlagStreamsToStderr: -progress must emit at least the final
// progress line on stderr (stdout stays the machine-readable report), and the
// run must still exit 0.
func TestProgressFlagStreamsToStderr(t *testing.T) {
	bin := buildBinary(t)
	stdout, stderr, code := runSim(t, bin,
		"-run", "tdtcp", "-flows", "2", "-warmup", "1", "-weeks", "1", "-progress")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "progress:") || !strings.Contains(stderr, "ev/s") {
		t.Errorf("stderr missing progress line, got: %s", stderr)
	}
	if strings.Contains(stdout, "progress:") {
		t.Errorf("progress leaked onto stdout:\n%s", stdout)
	}
	if !strings.Contains(stdout, "goodput") {
		t.Errorf("run report missing from stdout:\n%s", stdout)
	}
}

// TestFlightrecFlag pins both edges of -flightrec: a custom ring length and 0
// (disabled) must both run cleanly, and a negative exit is reserved for real
// failures.
func TestFlightrecFlag(t *testing.T) {
	bin := buildBinary(t)
	for _, n := range []string{"64", "0"} {
		stdout, stderr, code := runSim(t, bin,
			"-run", "tdtcp", "-flows", "2", "-warmup", "1", "-weeks", "1", "-flightrec", n)
		if code != 0 {
			t.Fatalf("-flightrec %s: exit %d\nstderr: %s", n, code, stderr)
		}
		if !strings.Contains(stdout, "goodput") {
			t.Errorf("-flightrec %s: report missing:\n%s", n, stdout)
		}
	}
}

// TestUsageListsObservabilityFlags: the new flags must appear in -help output
// alongside the audited trace/metrics/fault strings.
func TestUsageListsObservabilityFlags(t *testing.T) {
	bin := buildBinary(t)
	_, stderr, code := runSim(t, bin, "-help")
	if code != 0 && code != 2 {
		t.Fatalf("-help: exit %d", code)
	}
	for _, want := range []string{"-progress", "-flightrec", "-trace", "-tracecats", "-metrics", "-fault", "-invariants",
		"flight recorder", "histogram"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("usage missing %q:\n%s", want, stderr)
		}
	}
}

// TestBadWorkloadExitsNonZero covers the workload-resolution error path.
func TestBadWorkloadExitsNonZero(t *testing.T) {
	bin := buildBinary(t)
	_, stderr, code := runSim(t, bin, "-fig", "multirack", "-workload", "nosuch", "-quick")
	if code != 1 {
		t.Fatalf("bad workload: exit %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "nosuch") {
		t.Errorf("stderr should name the unknown workload, got: %s", stderr)
	}
}

// TestProfileFlagsDoNotPerturb: -cpuprofile and -memprofile observe the
// process, never the simulation. A profiled -run writes the same trace and the
// same report as an unprofiled one and leaves both profiles behind; and a
// failing invocation still writes them on its way out (exit 1).
func TestProfileFlagsDoNotPerturb(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	run := func(name string, extra ...string) (trace []byte, report string) {
		t.Helper()
		out := filepath.Join(dir, name+".jsonl")
		args := append([]string{
			"-run", "tdtcp", "-flows", "2", "-warmup", "1", "-weeks", "1",
			"-trace", out}, extra...)
		stdout, stderr, code := runSim(t, bin, args...)
		if code != 0 {
			t.Fatalf("%s: exit %d\nstderr: %s", name, code, stderr)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		return data, stdout
	}
	written := func(path string) {
		t.Helper()
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (%v)", path, err)
		}
	}
	cpu, mem := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "mem.pb.gz")
	baseTrace, baseReport := run("plain")
	tr, rep := run("profiled", "-cpuprofile", cpu, "-memprofile", mem)
	if !bytes.Equal(tr, baseTrace) {
		t.Errorf("profiled trace diverges from the unprofiled run (%d vs %d bytes)", len(tr), len(baseTrace))
	}
	if rep != baseReport {
		t.Errorf("profiled report diverges:\n%s\nvs:\n%s", rep, baseReport)
	}
	written(cpu)
	written(mem)

	cpu, mem = filepath.Join(dir, "fail-cpu.pb.gz"), filepath.Join(dir, "fail-mem.pb.gz")
	if _, stderr, code := runSim(t, bin, "-fig", "fig99", "-cpuprofile", cpu, "-memprofile", mem); code != 1 {
		t.Fatalf("unknown figure under profiling: exit %d, want 1 (stderr: %s)", code, stderr)
	}
	written(cpu)
	written(mem)
}

// TestShardsFlagIsGone: every run executes on one loop, so -shards is no
// longer a flag; passing it is a usage error (exit 2), not a silent no-op.
func TestShardsFlagIsGone(t *testing.T) {
	bin := buildBinary(t)
	_, stderr, code := runSim(t, bin, "-run", "tdtcp", "-shards", "1")
	if code != 2 || !strings.Contains(stderr, "shards") {
		t.Fatalf("-shards: exit %d, want 2 naming the flag (stderr: %s)", code, stderr)
	}
}

// TestDeadlineFlagExits3 pins the -deadline contract: a run whose horizon
// cannot fit the wall-clock budget is cancelled through the cooperative stop
// seam and exits 3 (distinct from error exit 1), naming the deadline on
// stderr.
func TestDeadlineFlagExits3(t *testing.T) {
	bin := buildBinary(t)
	stdout, stderr, code := runSim(t, bin,
		"-run", "cubic", "-flows", "8", "-warmup", "100000", "-weeks", "1",
		"-deadline", "300ms")
	if code != 3 {
		t.Fatalf("deadline run: exit %d, want 3\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "deadline") || !strings.Contains(stderr, "cancelled") {
		t.Errorf("stderr should explain the cancellation, got: %s", stderr)
	}
	if strings.Contains(stdout, "goodput") {
		t.Errorf("cancelled run printed a result report:\n%s", stdout)
	}
}

// TestDeadlineFlagGenerousBudgetExits0: a budget the run fits inside must
// not change the success path.
func TestDeadlineFlagGenerousBudgetExits0(t *testing.T) {
	bin := buildBinary(t)
	stdout, stderr, code := runSim(t, bin,
		"-run", "tdtcp", "-flows", "2", "-warmup", "1", "-weeks", "1",
		"-deadline", "5m")
	if code != 0 {
		t.Fatalf("generous deadline: exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "goodput") {
		t.Errorf("report missing from stdout:\n%s", stdout)
	}
}

// TestRunWorkloadReportsLifeCycle: -run with -workload is one open-loop
// workload run, and -metrics shows the flow life cycle next to the arrival
// counters: flows released, late segments, and the peak of bound ports.
func TestRunWorkloadReportsLifeCycle(t *testing.T) {
	bin := buildBinary(t)
	metrics := filepath.Join(t.TempDir(), "m.json")
	stdout, stderr, code := runSim(t, bin,
		"-run", "tdtcp", "-workload", "websearch", "-warmup", "1", "-weeks", "6", "-metrics", metrics)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"rotor-4", "released=", "late-segs=0", "fct all"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report missing %q:\n%s", want, stdout)
		}
	}
	js, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"workload.flows_released":`, `"workload.late_segs":0`, `"workload.ports_bound_max":`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("metrics missing %s:\n%s", want, js)
		}
	}
	if _, stderr, code := runSim(t, bin, "-run", "tdtcp", "-workload", "websearch", "-invariants"); code != 1 {
		t.Errorf("-invariants with -run -workload: exit %d, want 1 (stderr: %s)", code, stderr)
	}
}

// TestFabricFlagsRefusedWhereIgnored: -racks and -workload size the rotor
// fabric, which only -fig and -run -workload build. The other modes used to
// drop them and print two-rack hybrid numbers with exit 0; they must refuse,
// naming the flag and the modes that take it.
func TestFabricFlagsRefusedWhereIgnored(t *testing.T) {
	bin := buildBinary(t)
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-run", "tdtcp", "-racks", "8"}, []string{"-racks", "-fig", "-run with -workload"}},
		{[]string{"-sweep", "tdtcp", "-racks", "8", "-quick"}, []string{"-racks", "-fig", "-run with -workload", "-sweep"}},
		{[]string{"-sweep", "tdtcp", "-workload", "websearch", "-quick"}, []string{"-workload", "-fig", "-run", "-sweep"}},
	} {
		stdout, stderr, code := runSim(t, bin, tc.args...)
		if code != 1 || stdout != "" {
			t.Errorf("%v: exit %d, want 1 and no report\nstdout: %s\nstderr: %s", tc.args, code, stdout, stderr)
		}
		for _, want := range tc.want {
			if !strings.Contains(stderr, want) {
				t.Errorf("%v: stderr should name %s, got: %s", tc.args, want, stderr)
			}
		}
	}
}
