package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// exhaustive enforces total handling of enum-like const groups: a switch
// whose tag has a defined type with two or more package-level constants of
// that exact type must either list every constant or carry a default clause.
// The repository's enums — experiments.Variant, serve.State, serve.Kind — are
// where a silently-unhandled new member turns into a wrong result instead of
// a build break; the trace categories and fault kinds are bitmasks and string
// keys respectively and stay out of scope by construction (no defined-type
// switch tags).
//
// A default clause is the in-language acknowledgment that the switch
// deliberately handles "everything else"; a switch that enumerates a strict
// subset with no fallback is the bug this check exists for; a switch that
// must stay partial says so with an empty default.
func exhaustive(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				if d, ok := checkSwitch(prog, pkg, sw); ok {
					diags = append(diags, d)
				}
				return true
			})
		}
	}
	return diags
}

// checkSwitch analyzes one tagged switch statement against the const group
// of its tag type.
func checkSwitch(prog *Program, pkg *Package, sw *ast.SwitchStmt) (Diagnostic, bool) {
	tagType := pkg.Info.TypeOf(sw.Tag)
	named, ok := tagType.(*types.Named)
	if !ok {
		return Diagnostic{}, false
	}
	// Only enum-like basics qualify; switching over a named struct or
	// interface has no const group.
	if basicKind(named) == types.Invalid || basicKind(named) == types.Bool {
		return Diagnostic{}, false
	}
	group := constGroup(named)
	if len(group) < 2 {
		return Diagnostic{}, false
	}

	covered := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return Diagnostic{}, false // default clause: subset is deliberate
		}
		for _, e := range cc.List {
			tv, ok := pkg.Info.Types[e]
			if !ok || tv.Value == nil {
				// A non-constant case expression makes coverage undecidable;
				// stay silent rather than guess.
				return Diagnostic{}, false
			}
			covered[tv.Value.ExactString()] = true
		}
	}

	var missing []string
	for _, c := range group {
		if !covered[c.Val().ExactString()] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) == 0 {
		return Diagnostic{}, false
	}
	sort.Strings(missing)
	return Diagnostic{
		Pos: prog.Fset.Position(sw.Pos()),
		Message: fmt.Sprintf("switch over %s misses %s and has no default clause; handle them or add a default",
			named.Obj().Name(), strings.Join(missing, ", ")),
	}, true
}

// constGroup returns the package-level constants declared with exactly the
// named type, in the declaring package — whether that package is part of the
// program or was loaded from export data.
func constGroup(named *types.Named) []*types.Const {
	declPkg := named.Obj().Pkg()
	if declPkg == nil {
		return nil // builtin (error) or universe type
	}
	var group []*types.Const
	scope := declPkg.Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
			group = append(group, c)
		}
	}
	return group
}
