// Package lint is a pure-stdlib static analyzer for the contracts this
// repository's correctness rests on that neither the compiler, go vet nor a
// test guards: byte-identical replay from a seed (the paper's
// controlled-repetition methodology), enum-switch exhaustiveness, sim-time
// unit hygiene, and the mutex discipline of the concurrent layers. A check
// stays only while some defect it exists for passes every test; DESIGN §9
// names the commit whose DESIGN.md holds the audit that decided which.
//
// The framework is deliberately go/packages-free: packages are loaded by
// shelling out to `go list -json -export -deps` (see loader.go) and
// typechecked with go/types against the toolchain's export data, so tdlint
// needs nothing outside the standard library and an installed go toolchain.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// Package is one loaded, typechecked package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Syntax holds the parsed files, comments included.
	Syntax []*ast.File
	// Types is the typechecked package.
	Types *types.Package
	// Info holds the typechecker's results for Syntax.
	Info *types.Info
}

// Program is a set of loaded packages checked together.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// MarshalJSON renders the finding as a flat object for CI consumption.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message})
}

// Check is one analyzer: a name for -checks selection, a one-line contract
// description, and the analysis itself.
type Check struct {
	Name string
	Doc  string
	Run  func(prog *Program) []Diagnostic
}

// All returns every registered check, in stable order.
func All() []*Check {
	return []*Check{
		{Name: "determinism", Run: determinism,
			Doc: "forbid wall-clock time, global math/rand, goroutines, map iteration, sync.Pool and serve/obs imports in simulation packages"},
		{Name: "concurrency", Run: concurrency,
			Doc: "serve/obs/trace: consistent mutex guards, no blocking calls under a mutex"},
		{Name: "simtime", Run: simTime,
			Doc: "sim-boundary packages must use sim.Time/sim.Dur: no time.Duration/time.Time, no unit-suffixed raw ints, no Time±Time arithmetic"},
		{Name: "exhaustive", Run: exhaustive,
			Doc: "switches over enum-like const groups must cover every constant or carry a default clause"},
	}
}

// Select resolves a comma-separated -checks list against the registry.
// The empty string selects every check.
func Select(list string) ([]*Check, error) {
	all := All()
	if strings.TrimSpace(list) == "" {
		return all, nil
	}
	byName := make(map[string]*Check, len(all))
	for _, c := range all {
		byName[c.Name] = c
	}
	var out []*Check
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q (have %s)", name, strings.Join(checkNames(all), ", "))
		}
		out = append(out, c)
	}
	return out, nil
}

func checkNames(cs []*Check) []string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// Run executes the checks over the program and returns their findings
// sorted by position, each labelled with the check that reported it.
func Run(prog *Program, checks []*Check) []Diagnostic {
	var diags []Diagnostic
	for _, c := range checks {
		ds := c.Run(prog)
		for i := range ds {
			ds[i].Check = c.Name
		}
		diags = append(diags, ds...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// WriteText renders findings one per line.
func WriteText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
}

// WriteJSON renders findings as a JSON array.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(diags)
}

// --- shared AST helpers ------------------------------------------------------

// pathMatches reports whether the package import path ends with one of the
// given repo-relative package suffixes (e.g. "internal/tcp"), so checks scope
// themselves identically against the real module and fixture trees.
func pathMatches(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// walkWithStack traverses the subtree keeping the ancestor chain: fn receives
// each node together with its ancestors, outermost first. Returning false
// prunes the subtree.
func walkWithStack(f ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(n, stack)
		if keep {
			stack = append(stack, n)
		}
		return keep
	})
}

// basicKind returns the underlying basic kind of t (types.Invalid when t is
// not a basic type).
func basicKind(t types.Type) types.BasicKind {
	if t == nil {
		return types.Invalid
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Kind()
	}
	return types.Invalid
}
