package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// simTimePkgs are the packages whose every time quantity is virtual: the
// deterministic packages (workload generation and statistics among them) plus
// the layers that compute over their results with sim units. The serving and
// observability layers deal in wall clocks by design and stay out of scope.
var simTimePkgs = append([]string{
	"internal/experiments",
	"internal/mptcp",
	"internal/invariant",
	"internal/packet",
}, deterministicPkgs...)

// unitSuffixRe matches identifier names that smell like a raw time quantity
// in a specific unit ("timeoutMs", "delay_us", "gapNanos"). The unit token
// must sit on a word boundary — after an underscore, or capitalized after a
// lowercase/digit camel hump — so English plurals ("TDNs", "reinjections")
// and acronyms do not trip it. Such a value belongs in sim.Dur, where the
// unit is fixed at nanoseconds by the type.
var unitSuffixRe = regexp.MustCompile(
	`([a-z0-9]|_)_(ms|us|ns|sec|msec|usec|nsec|millis|micros|nanos)$` + // snake_case
		`|[a-z0-9](Ms|Us|Ns|Sec|Msec|Usec|Nsec|Millis|Micros|Nanos)$` + // camelCase
		`|^(msec|usec|nsec|millis|micros|nanos)$`) // bare unit name

// simTime keeps virtual time in sim.Time/sim.Dur inside the simulation
// boundary: no time.Time/time.Duration in sim-boundary packages (a wall-clock
// quantity there is a unit bug waiting to replay differently), no raw integer
// declarations whose names carry a unit suffix (the unit belongs in the
// type), and no adding or subtracting two sim.Time values directly (a point
// plus a point is meaningless — use Add/Sub, which force the Time/Dur
// distinction).
func simTime(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !pathMatches(pkg.Path, simTimePkgs...) {
			continue
		}
		for _, f := range pkg.Syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if d, ok := flagWallType(pkg, n); ok {
						d.Pos = prog.Fset.Position(n.Pos())
						diags = append(diags, d)
					}
				case *ast.Ident:
					if d, ok := flagUnitName(pkg, n); ok {
						d.Pos = prog.Fset.Position(n.Pos())
						diags = append(diags, d)
					}
				case *ast.BinaryExpr:
					// The sim package itself implements Add/Sub; its two
					// conversions are the one legitimate site.
					if pathMatches(pkg.Path, "internal/sim") {
						return true
					}
					if d, ok := flagTimeArith(pkg, n); ok {
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

// flagWallType reports a reference to time.Duration or time.Time — as a
// type, in a conversion, in a signature — inside a sim-boundary package.
func flagWallType(pkg *Package, sel *ast.SelectorExpr) (Diagnostic, bool) {
	obj, ok := pkg.Info.Uses[sel.Sel].(*types.TypeName)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return Diagnostic{}, false
	}
	switch obj.Name() {
	case "Duration":
		return Diagnostic{Message: "time.Duration in a sim-boundary package: virtual spans are sim.Dur (int64 ns); wall-clock durations stop at the serve/obs layer"}, true
	case "Time":
		return Diagnostic{Message: "time.Time in a sim-boundary package: virtual instants are sim.Time; wall clocks stop at the serve/obs layer"}, true
	}
	return Diagnostic{}, false
}

// flagUnitName reports a declaration of a raw-integer variable, field,
// parameter, or result whose name ends in a time-unit suffix. Constants are
// exempt (unit-named tuning constants like defaultRTOms would be caught at
// their use sites) — but declared vars and struct fields are where the
// ambiguity lives.
func flagUnitName(pkg *Package, id *ast.Ident) (Diagnostic, bool) {
	obj, ok := pkg.Info.Defs[id].(*types.Var)
	if !ok || obj.Name() == "_" {
		return Diagnostic{}, false
	}
	if !unitSuffixRe.MatchString(obj.Name()) {
		return Diagnostic{}, false
	}
	// Only raw (untyped-by-name) integers are findings: sim.Dur, sim.Time,
	// and other defined types carry their unit in the type.
	t := obj.Type()
	if _, isNamed := t.(*types.Named); isNamed {
		return Diagnostic{}, false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return Diagnostic{}, false
	}
	return Diagnostic{
		Message: "raw integer " + obj.Name() + " carries a time unit in its name; make it sim.Dur (or sim.Time) so the unit lives in the type",
	}, true
}

// flagTimeArith reports direct + or - between two sim.Time operands.
func flagTimeArith(pkg *Package, be *ast.BinaryExpr) (Diagnostic, bool) {
	if be.Op != token.ADD && be.Op != token.SUB {
		return Diagnostic{}, false
	}
	if !isSimTime(pkg.Info.TypeOf(be.X)) || !isSimTime(pkg.Info.TypeOf(be.Y)) {
		return Diagnostic{}, false
	}
	op := "adding"
	hint := "a point plus a point is meaningless; use t.Add(d sim.Dur)"
	if be.Op == token.SUB {
		op = "subtracting"
		hint = "the difference of two instants is a span; use t.Sub(u), which returns sim.Dur"
	}
	return Diagnostic{Message: op + " two sim.Time values directly: " + hint}, true
}

// isSimTime reports whether t is the sim package's Time type (matched by
// path suffix so fixture trees with their own internal/sim behave like the
// real module).
func isSimTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil &&
		(obj.Pkg().Path() == "internal/sim" || strings.HasSuffix(obj.Pkg().Path(), "/internal/sim"))
}
