package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinary compiles tdlint once into a temp dir so the exit-code contract
// is asserted against the real process boundary, not an in-process shim.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tdlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeModule materialises a throwaway module from path→content pairs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for path, content := range files {
		full := filepath.Join(dir, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runLint(t *testing.T, bin string, args ...string) (string, string, int) {
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

const goMod = "module lintcheck.example/m\n\ngo 1.24\n"

// findingModule is a tree with exactly one finding, from the exhaustive
// check, on line 7 of pkg/state.go: a switch over state that misses done.
var findingModule = map[string]string{
	"go.mod": goMod,
	"pkg/state.go": "package pkg\n\ntype state int\n\nconst idle, done state = 0, 1\n\n" +
		"func busy(s state) bool { switch s { case idle: return false }; return true }\n",
}

// TestExitCodeContract pins the CLI's documented contract: 0 clean, 1 with
// findings, 2 on load failure.
func TestExitCodeContract(t *testing.T) {
	bin := buildBinary(t)

	t.Run("clean", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod":       goMod,
			"pkg/clean.go": "package pkg\n\nfunc Add(a, b int) int { return a + b }\n",
		})
		stdout, stderr, code := runLint(t, bin, "-C", dir, "./...")
		if code != 0 {
			t.Fatalf("clean tree: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
		}
		if stdout != "" {
			t.Errorf("clean tree printed findings: %s", stdout)
		}
	})

	t.Run("findings", func(t *testing.T) {
		dir := writeModule(t, findingModule)
		stdout, stderr, code := runLint(t, bin, "-C", dir, "./...")
		if code != 1 {
			t.Fatalf("tree with findings: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
		}
		if !strings.Contains(stdout, "[exhaustive]") {
			t.Errorf("expected an exhaustive finding, got: %s", stdout)
		}
	})

	t.Run("load-error", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod":        goMod,
			"pkg/broken.go": "package pkg\n\nfunc oops( {\n",
		})
		stdout, stderr, code := runLint(t, bin, "-C", dir, "./...")
		if code != 2 {
			t.Fatalf("broken tree: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
		}
		if stderr == "" {
			t.Error("load error should be reported on stderr")
		}
	})

	t.Run("bad-check-name", func(t *testing.T) {
		_, stderr, code := runLint(t, bin, "-checks", "nosuch", ".")
		if code != 2 {
			t.Fatalf("unknown check: exit %d, stderr: %s", code, stderr)
		}
		// The error must name the valid set so the misspelling is a
		// one-round-trip fix.
		for _, name := range []string{"determinism", "concurrency", "simtime", "exhaustive"} {
			if !strings.Contains(stderr, name) {
				t.Errorf("unknown-check error does not list %q: %s", name, stderr)
			}
		}
	})
}

// TestListFlag asserts -list prints every registered check to stdout and
// exits 0 without loading any packages.
func TestListFlag(t *testing.T) {
	bin := buildBinary(t)
	stdout, stderr, code := runLint(t, bin, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d, stderr: %s", code, stderr)
	}
	for _, name := range []string{
		"determinism", "concurrency", "simtime", "exhaustive",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout)
		}
	}
}

// TestJSONOutput asserts -json emits a machine-readable array with the fields
// CI consumes.
func TestJSONOutput(t *testing.T) {
	bin := buildBinary(t)
	dir := writeModule(t, findingModule)
	stdout, stderr, code := runLint(t, bin, "-json", "-C", dir, "./...")
	if code != 1 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	if len(findings) != 1 || findings[0].Check != "exhaustive" || findings[0].Line != 7 {
		t.Errorf("unexpected findings: %+v", findings)
	}
}

// TestChecksSubset asserts -checks limits the run: the exhaustive violation is
// invisible to a determinism-only run.
func TestChecksSubset(t *testing.T) {
	bin := buildBinary(t)
	dir := writeModule(t, findingModule)
	stdout, stderr, code := runLint(t, bin, "-checks", "determinism", "-C", dir, "./...")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}
