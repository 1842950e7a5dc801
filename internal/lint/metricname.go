package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
)

var (
	// metricFullRe is the convention for fully constant metric names:
	// a package-ish prefix, then dot-separated snake_case segments.
	metricFullRe = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z0-9_]+)+$`)
	// metricFragRe constrains the constant fragments of a partly dynamic
	// name.
	metricFragRe = regexp.MustCompile(`^[a-z0-9_.]*$`)
	// metricPrefixRe requires a partly dynamic name to open with a constant
	// "pkg." prefix, so names stay groupable.
	metricPrefixRe = regexp.MustCompile(`^[a-z][a-z0-9]*\.`)
	// sprintfVerbRe matches one fmt verb; the pieces between verbs are
	// constant fragments.
	sprintfVerbRe = regexp.MustCompile(`%[-+ #0]*[0-9]*(\.[0-9]+)?[a-zA-Z]`)
)

// metricName enforces the pkg.snake_case convention on names passed to
// the trace Registry's Add, Set and Hist. Names that do not parse as
// "prefix.segment[.segment...]" fall out of every dashboard grouping, and
// fully dynamic names make cardinality unbounded — doubly so for histograms,
// where every name is a full bucket array.
func metricName(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isRegistryAddSet(pkg, call) || len(call.Args) == 0 {
					return true
				}
				if msg, bad := badMetricName(pkg, call.Args[0]); bad {
					diags = append(diags, Diagnostic{
						Pos:     prog.Fset.Position(call.Args[0].Pos()),
						Message: msg,
					})
				}
				return true
			})
		}
	}
	return diags
}

// isRegistryAddSet reports whether call invokes method Add, Set or Hist on
// the trace package's Registry type.
func isRegistryAddSet(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || (fn.Name() != "Add" && fn.Name() != "Set" && fn.Name() != "Hist") {
		return false
	}
	if fn.Pkg() == nil || fn.Pkg().Name() != "trace" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// namePiece is one flattened fragment of a metric-name expression: either a
// compile-time constant string or a dynamic hole.
type namePiece struct {
	text    string
	isConst bool
}

// badMetricName validates the flattened name expression against the
// convention, returning a message when it fails.
func badMetricName(pkg *Package, arg ast.Expr) (string, bool) {
	pieces := flattenName(pkg, arg)
	constCount := 0
	full := ""
	for _, p := range pieces {
		if p.isConst {
			constCount++
			full += p.text
		}
	}
	switch {
	case constCount == len(pieces):
		if !metricFullRe.MatchString(full) {
			return "metric name \"" + full + "\" does not match the pkg.snake_case convention", true
		}
	case constCount == 0:
		return "metric name is entirely dynamic; start it with a constant \"pkg.\" prefix so it stays groupable", true
	default:
		if !pieces[0].isConst || !metricPrefixRe.MatchString(pieces[0].text) {
			return "dynamic metric name must start with a constant \"pkg.\" prefix", true
		}
		for _, p := range pieces {
			if p.isConst && !metricFragRe.MatchString(p.text) {
				return "metric name fragment \"" + p.text + "\" contains characters outside [a-z0-9_.]", true
			}
		}
	}
	return "", false
}

// flattenName decomposes a metric-name expression into constant fragments and
// dynamic holes, looking through string concatenation, string constants, and
// fmt.Sprintf with a constant format.
func flattenName(pkg *Package, e ast.Expr) []namePiece {
	if s, ok := constString(pkg, e); ok {
		return []namePiece{{text: s, isConst: true}}
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return flattenName(pkg, e.X)
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			return append(flattenName(pkg, e.X), flattenName(pkg, e.Y)...)
		}
	case *ast.CallExpr:
		if isSprintf(pkg, e) && len(e.Args) > 0 {
			if format, ok := constString(pkg, e.Args[0]); ok {
				return splitSprintf(format)
			}
		}
	}
	return []namePiece{{isConst: false}}
}

// constString returns the value of a compile-time constant string expression.
func constString(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func isSprintf(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == "Sprintf" && fn.Pkg() != nil && fn.Pkg().Path() == "fmt"
}

// splitSprintf turns a constant format string into alternating constant
// fragments and one hole per verb.
func splitSprintf(format string) []namePiece {
	frags := sprintfVerbRe.Split(format, -1)
	pieces := make([]namePiece, 0, 2*len(frags))
	for i, frag := range frags {
		if i > 0 {
			pieces = append(pieces, namePiece{isConst: false})
		}
		pieces = append(pieces, namePiece{text: frag, isConst: true})
	}
	return pieces
}
