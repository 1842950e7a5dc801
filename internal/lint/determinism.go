package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// deterministicPkgs are the packages whose behaviour must be a pure function
// of the seed: the simulation core, everything scheduled on it, and the two
// result paths a run computes through (flow sizes and arrivals, statistics),
// the same set ci.sh scans for fused multiply-adds.
var deterministicPkgs = []string{
	"internal/sim",
	"internal/netem",
	"internal/rdcn",
	"internal/tcp",
	"internal/core",
	"internal/cc",
	"internal/fault",
	"internal/workload",
	"internal/stats",
}

// nondeterministicPkgs are the layers explicitly OUTSIDE the determinism
// boundary: the serving daemon and live observability read wall clocks and
// spawn goroutines by design. The boundary is one-way — they
// may import the simulation, never the reverse — so a deterministic package
// importing one of them is itself a finding.
var nondeterministicPkgs = []string{
	"internal/serve",
	"internal/obs",
	"cmd/tdserve",
}

// wallClockFuncs are the time package entry points that read or depend on the
// wall clock or a runtime timer. time.Duration arithmetic and ParseDuration
// stay allowed.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// determinism forbids the constructs that make a simulation run diverge
// between replays of the same seed: wall-clock reads, the process-global
// math/rand generator, goroutines, iteration over map order, and sync.Pool
// (whose reuse schedule depends on GC timing).
func determinism(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !pathMatches(pkg.Path, deterministicPkgs...) {
			continue
		}
		for _, f := range pkg.Syntax {
			for _, spec := range f.Imports {
				ip, _ := strconv.Unquote(spec.Path.Value)
				if pathMatches(ip, nondeterministicPkgs...) {
					diags = append(diags, Diagnostic{
						Pos:     prog.Fset.Position(spec.Pos()),
						Message: "import of " + ip + " in a deterministic package: the serving/observability layer is outside the determinism boundary and may only import the simulation, never the reverse",
					})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					diags = append(diags, Diagnostic{
						Pos:     prog.Fset.Position(n.Pos()),
						Message: "go statement in a deterministic package: goroutine interleaving is not replayable; schedule work on the event loop",
					})
				case *ast.RangeStmt:
					if _, ok := pkg.Info.TypeOf(n.X).Underlying().(*types.Map); ok {
						diags = append(diags, Diagnostic{
							Pos:     prog.Fset.Position(n.Pos()),
							Message: "range over a map in a deterministic package: iteration order varies between runs; collect and sort the keys first",
						})
					}
				case *ast.SelectorExpr:
					if d, ok := flagTimeOrGlobalRand(pkg, n); ok {
						d.Pos = prog.Fset.Position(n.Pos())
						diags = append(diags, d)
					}
				}
				return true
			})
		}
	}
	return diags
}

// flagTimeOrGlobalRand reports a use of a forbidden time function, of
// math/rand package-level state, or of sync.Pool through the selector
// expression sel.
func flagTimeOrGlobalRand(pkg *Package, sel *ast.SelectorExpr) (Diagnostic, bool) {
	obj := pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return Diagnostic{}, false
	}
	// Only package-level selections (pkgname.Ident) matter here; method calls
	// like r.Intn on a local rand.Rand are fine.
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return Diagnostic{}, false
	}
	if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); !isPkg {
		return Diagnostic{}, false
	}
	switch obj.Pkg().Path() {
	case "time":
		if wallClockFuncs[obj.Name()] {
			return Diagnostic{
				Message: "time." + obj.Name() + " in a deterministic package: wall-clock reads are not replayable; use the simulated clock",
			}, true
		}
	case "math/rand", "math/rand/v2":
		// Constructors for an explicitly seeded generator stay allowed; the
		// package-level functions and Source draw from process-global state.
		if strings.HasPrefix(obj.Name(), "New") {
			return Diagnostic{}, false
		}
		if _, isType := obj.(*types.TypeName); isType {
			return Diagnostic{}, false
		}
		return Diagnostic{
			Message: "global math/rand." + obj.Name() + " in a deterministic package: process-global generator is not seed-reproducible; use rand.New(rand.NewSource(seed))",
		}, true
	case "sync":
		// The pool sub-rule: sync.Pool hands buffers back on a schedule set
		// by the garbage collector, so buffer identity — and any latent
		// aliasing bug — differs between replays of the same seed.
		if obj.Name() == "Pool" {
			return Diagnostic{
				Message: "sync.Pool in a deterministic package: GC-timing-dependent reuse is not replayable; use a loop-owned free list (e.g. netem.BufPool)",
			}, true
		}
	}
	return Diagnostic{}, false
}
