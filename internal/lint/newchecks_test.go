package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestConcurrencyFixture(t *testing.T) {
	checkFixture(t, selectChecks(t, "concurrency"), "h/internal/serve")
}

func TestSimTimeFixture(t *testing.T) {
	checkFixture(t, selectChecks(t, "simtime"), "i/internal/sim", "i/internal/tcp")
}

func TestExhaustiveFixture(t *testing.T) {
	checkFixture(t, selectChecks(t, "exhaustive"), "j/states")
}

// TestParseGoListMalformed pins the loader's first failure stage: a truncated
// or corrupt `go list` stream is a "go list" LoadError, never a panic.
func TestParseGoListMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"truncated": `{"ImportPath": "x", "Dir"`,
		"non-json":  "go: error loading module",
	} {
		_, _, err := parseGoList([]byte(in))
		le, ok := err.(*LoadError)
		if !ok || le.Stage != "go list" {
			t.Errorf("%s: got %v, want go list LoadError", name, err)
		}
	}
}

// TestParseGoListPackageError asserts a package-level Error entry (a broken
// import, say) surfaces as a load failure even though the stream is valid.
func TestParseGoListPackageError(t *testing.T) {
	in := `{"ImportPath": "x", "Error": {"Err": "no required module provides package x"}}`
	_, _, err := parseGoList([]byte(in))
	le, ok := err.(*LoadError)
	if !ok || le.Stage != "go list" || !strings.Contains(le.Error(), "no required module") {
		t.Errorf("got %v, want go list LoadError carrying the package error", err)
	}
}

// TestParseGoListSplit asserts the stream splits into exports (all packages)
// and targets (non-standard module packages only).
func TestParseGoListSplit(t *testing.T) {
	in := `{"ImportPath": "fmt", "Standard": true, "Export": "/cache/fmt.a"}
{"ImportPath": "example.com/m/pkg", "Dir": "/m/pkg", "GoFiles": ["a.go"], "Export": "/cache/pkg.a", "Module": {"Path": "example.com/m"}}`
	exports, targets, err := parseGoList([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if exports["fmt"] != "/cache/fmt.a" || exports["example.com/m/pkg"] != "/cache/pkg.a" {
		t.Errorf("bad exports: %v", exports)
	}
	if len(targets) != 1 || targets[0].ImportPath != "example.com/m/pkg" {
		t.Errorf("bad targets: %+v", targets)
	}
}

// TestMissingExportData drives typecheck through an importer with no export
// data at all: the failure must come back as a typecheck LoadError carrying
// the missing path, not a panic deep in go/importer.
func TestMissingExportData(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", "package p\n\nimport \"fmt\"\n\nvar _ = fmt.Sprint\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = typecheck(fset, "p", []*ast.File{f}, exportImporter(fset, map[string]string{}))
	le, ok := err.(*LoadError)
	if !ok || le.Stage != "typecheck" || !strings.Contains(le.Error(), "no export data") {
		t.Fatalf("got %v, want typecheck LoadError about missing export data", err)
	}
}

// TestLoadDirsTypecheckFailure asserts a type error in fixture sources is a
// typecheck-stage LoadError.
func TestLoadDirsTypecheckFailure(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "bad")
	if err := os.MkdirAll(src, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "a.go"),
		[]byte("package bad\n\nvar x int = \"not an int\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDirs(dir, "bad")
	le, ok := err.(*LoadError)
	if !ok || le.Stage != "typecheck" {
		t.Fatalf("got %v, want typecheck LoadError", err)
	}
}
