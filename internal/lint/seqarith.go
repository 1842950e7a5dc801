package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// seqArithPkgs are the packages handling wrapping 32-bit sequence, ACK, DSN
// and epoch counters.
var seqArithPkgs = []string{
	"internal/tcp",
	"internal/packet",
	"internal/core",
	"internal/mptcp",
}

// seqHelperFuncs is the RFC 1982 helper family; raw comparisons are the point
// of these functions, so they are exempt.
var seqHelperFuncs = map[string]bool{
	"SeqLT": true, "SeqLEQ": true, "SeqGT": true, "SeqGEQ": true,
	"SeqMax": true, "SeqDiff": true,
	"seqLT": true, "seqLEQ": true, "seqGT": true, "seqGEQ": true,
	"seqMax": true, "seqDiff": true,
}

// seqNameFragments mark an identifier as carrying sequence-space semantics.
var seqNameFragments = []string{"seq", "ack", "epoch", "una", "nxt", "dsn", "sack"}

// seqNameExact are short names that carry sequence-space semantics in this
// codebase without containing one of the fragments.
var seqNameExact = map[string]bool{"start": true, "end": true}

// seqArith flags raw <, >, <=, >= comparisons between uint32 values with
// sequence-space names. Such comparisons are wrong once the counter wraps;
// the packet.SeqLT family implements the correct RFC 1982 signed-distance
// comparison.
func seqArith(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !pathMatches(pkg.Path, seqArithPkgs...) {
			continue
		}
		for _, f := range pkg.Syntax {
			walkWithStack(f, func(n ast.Node, stack []ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok {
					return true
				}
				switch be.Op {
				case token.LSS, token.GTR, token.LEQ, token.GEQ:
				default:
					return true
				}
				if seqHelperFuncs[enclosingFuncName(stack)] {
					return true
				}
				if basicKind(pkg.Info.TypeOf(be.X)) != types.Uint32 ||
					basicKind(pkg.Info.TypeOf(be.Y)) != types.Uint32 {
					return true
				}
				if !hasSeqName(be.X) && !hasSeqName(be.Y) {
					return true
				}
				diags = append(diags, Diagnostic{
					Pos:     prog.Fset.Position(be.OpPos),
					Message: "raw " + be.Op.String() + " on uint32 sequence-space values breaks at wraparound; use packet.Seq" + seqHelperFor(be.Op) + " (RFC 1982 arithmetic)",
				})
				return true
			})
		}
	}
	return diags
}

func seqHelperFor(op token.Token) string {
	switch op {
	case token.LSS:
		return "LT"
	case token.LEQ:
		return "LEQ"
	case token.GTR:
		return "GT"
	default:
		return "GEQ"
	}
}

// hasSeqName reports whether any identifier, selector field, or called method
// inside e has a sequence-space name.
func hasSeqName(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		var name string
		switch n := n.(type) {
		case *ast.Ident:
			name = n.Name
		case *ast.SelectorExpr:
			name = n.Sel.Name
		default:
			return true
		}
		if isSeqName(name) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isSeqName(name string) bool {
	lower := strings.ToLower(name)
	if seqNameExact[lower] {
		return true
	}
	for _, frag := range seqNameFragments {
		if strings.Contains(lower, frag) {
			return true
		}
	}
	return false
}
