package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var fixtureRoot = filepath.Join("testdata", "src")

// wantRe matches the analysistest-style expectation comments embedded in
// fixture sources: // want "regex"
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// selectChecks resolves check names through the same Select the CLI uses.
func selectChecks(t *testing.T, names string) []*Check {
	t.Helper()
	checks, err := Select(names)
	if err != nil {
		t.Fatal(err)
	}
	return checks
}

// checkFixture loads the fixture packages, runs the checks through Run, and
// compares the findings against the fixtures' want comments: every finding
// must match an expectation on its line, and every expectation must be hit.
func checkFixture(t *testing.T, checks []*Check, dirs ...string) {
	t.Helper()
	prog, err := LoadDirs(fixtureRoot, dirs...)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, dirs)
	for _, d := range Run(prog, checks) {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		res, ok := wants[key]
		if !ok {
			t.Errorf("unexpected finding: %s", d)
			continue
		}
		matched := -1
		text := "[" + d.Check + "] " + d.Message
		for i, re := range res {
			if re.MatchString(text) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("finding at %s matches no expectation: %s", key, d)
			continue
		}
		res = append(res[:matched], res[matched+1:]...)
		if len(res) == 0 {
			delete(wants, key)
		} else {
			wants[key] = res
		}
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("expected finding at %s matching %q, got none", key, re)
		}
	}
}

// collectWants scans fixture sources for want comments, keyed by file:line.
func collectWants(t *testing.T, dirs []string) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	for _, dir := range dirs {
		full := filepath.Join(fixtureRoot, filepath.FromSlash(dir))
		entries, err := os.ReadDir(full)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(full, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex: %v", path, i+1, err)
					}
					key := fmt.Sprintf("%s:%d", path, i+1)
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, selectChecks(t, "determinism"), "a/internal/sim", "a/clockapp")
}

// TestDeterminismBoundaryFixture proves a simulation package cannot import
// the serving layer: the import itself is a finding, while the serving
// package (outside the boundary) is loaded without complaint.
func TestDeterminismBoundaryFixture(t *testing.T) {
	checkFixture(t, selectChecks(t, "determinism"), "g/internal/sim", "g/internal/serve")
}

// TestDeterminismResultPathFixture: the boundary covers the packages a run's
// result is computed through, not only the simulation core; a map range in a
// stats package is a finding.
func TestDeterminismResultPathFixture(t *testing.T) {
	checkFixture(t, selectChecks(t, "determinism"), "k/internal/stats")
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d checks, err %v; want all %d", len(all), err, len(All()))
	}
	two, err := Select("exhaustive, determinism")
	if err != nil || len(two) != 2 || two[0].Name != "exhaustive" || two[1].Name != "determinism" {
		t.Fatalf("Select(\"exhaustive, determinism\") = %v, err %v", checkNames(two), err)
	}
	if _, err := Select("nosuch"); err == nil {
		t.Fatal("Select(\"nosuch\") should fail")
	}
}

// TestLoadModule smoke-tests the production loader path against this module
// itself: the packet package must load, typecheck, and come back clean.
func TestLoadModule(t *testing.T) {
	prog, err := Load("../..", "./internal/packet")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Pkgs) != 1 || !strings.HasSuffix(prog.Pkgs[0].Path, "internal/packet") {
		t.Fatalf("unexpected packages: %+v", prog.Pkgs)
	}
	if diags := Run(prog, All()); len(diags) != 0 {
		t.Errorf("packet package should be clean, got: %v", diags)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestSeqComparisonDoesNotCompile type-checks raw ordered comparisons of two
// packet.Seq values against the real package and asserts each is a type
// error. This is what replaced a lint check that guessed sequence values
// from their names: if Seq ever became a plain integer type again, raw
// comparisons would compile, and this test would fail.
func TestSeqComparisonDoesNotCompile(t *testing.T) {
	prog, err := Load("../..", "./internal/packet")
	if err != nil {
		t.Fatal(err)
	}
	pkt := prog.Pkgs[0].Types
	check := func(body string) error {
		fset := token.NewFileSet()
		src := fmt.Sprintf("package p\n\nimport %q\n\nfunc f(a, b packet.Seq) bool { return %s }\n", pkt.Path(), body)
		f, err := parser.ParseFile(fset, "f.go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if path != pkt.Path() {
				return nil, fmt.Errorf("unexpected import %q", path)
			}
			return pkt, nil
		})}
		_, err = conf.Check("p", fset, []*ast.File{f}, nil)
		return err
	}
	if err := check("a.LT(b) || a == b"); err != nil {
		t.Fatalf("the method form must compile: %v", err)
	}
	for _, op := range []string{"<", "<=", ">", ">="} {
		if err := check("a " + op + " b"); err == nil || !strings.Contains(err.Error(), "operator "+op+" not defined") {
			t.Errorf("a %s b on packet.Seq: got %v, want a type error", op, err)
		}
	}
}
