package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// hotpathPrefix marks a function whose body must stay free of heap
// allocations. The directive goes in the function's doc comment; anything
// after the marker is a free-form note:
//
//	//lint:hotpath fires once per delivered frame
//	func (d *drainDelivery) fire() { ... }
//
// The contract is checked against the compiler's own escape analysis
// (go build -gcflags=-m=1), so it covers exactly what the runtime would
// allocate: escaping new/make/composite literals, interface boxing,
// escaping closures, and stack variables moved to the heap. Allocations in
// callees are charged to the callee — annotate the whole hot path, not just
// its root.
const hotpathPrefix = "//lint:hotpath"

// hotFunc is one annotated function: where its body spans, for attributing
// compiler reports to it.
type hotFunc struct {
	name      string
	file      string
	startLine int
	endLine   int
	pkgPath   string
	declPos   token.Position
}

// HotPathCheck is the compile-time half of the zero-allocation contract that
// internal/experiments' TestSteadyStateDoesNotAllocate holds at run time: a
// //lint:hotpath function containing a statement the escape analysis says
// allocates is a finding. Run requires a
// module-mode load (Load, not LoadDirs) because it shells out to the
// compiler for escape data; the build is cache-replayed, so re-linting a
// clean tree costs no compile time.
func HotPathCheck() *Check {
	c := &Check{
		Name: "hotpath",
		Doc:  "//lint:hotpath functions must stay heap-allocation-free per the compiler's escape analysis",
	}
	c.Run = func(prog *Program) []Diagnostic {
		hot := collectHotFuncs(prog)
		if len(hot) == 0 {
			return nil
		}
		var diags []Diagnostic
		if prog.Dir == "" {
			// GOPATH-style fixture loads have no module to build; surface the
			// misconfiguration rather than silently passing.
			for _, h := range hot {
				diags = append(diags, Diagnostic{
					Pos:     h.declPos,
					Check:   c.Name,
					Message: "hotpath check needs a module-mode load (go list) to run escape analysis; " + h.name + " was not checked",
				})
			}
			return diags
		}
		pkgs := map[string]bool{}
		for _, h := range hot {
			pkgs[h.pkgPath] = true
		}
		paths := make([]string, 0, len(pkgs))
		for p := range pkgs {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		allocs, err := escapeAnalysis(prog.Dir, paths)
		if err != nil {
			diags = append(diags, Diagnostic{
				Pos:     hot[0].declPos,
				Check:   c.Name,
				Message: "escape analysis failed: " + err.Error(),
			})
			return diags
		}
		for _, a := range allocs {
			for _, h := range hot {
				if a.file != h.file || a.line < h.startLine || a.line > h.endLine {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:     token.Position{Filename: a.file, Line: a.line, Column: a.col},
					Check:   c.Name,
					Message: "heap allocation in //lint:hotpath function " + h.name + ": " + a.msg,
				})
				break
			}
		}
		return diags
	}
	return c
}

// collectHotFuncs finds every function declaration carrying the hotpath
// directive in its doc comment.
func collectHotFuncs(prog *Program) []hotFunc {
	var hot []hotFunc
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil || fd.Body == nil {
					continue
				}
				marked := false
				for _, cm := range fd.Doc.List {
					if cm.Text == hotpathPrefix || strings.HasPrefix(cm.Text, hotpathPrefix+" ") {
						marked = true
						break
					}
				}
				if !marked {
					continue
				}
				start := prog.Fset.Position(fd.Body.Pos())
				end := prog.Fset.Position(fd.Body.End())
				hot = append(hot, hotFunc{
					name:      funcDisplayName(fd),
					file:      start.Filename,
					startLine: start.Line,
					endLine:   end.Line,
					pkgPath:   pkg.Path,
					declPos:   prog.Fset.Position(fd.Pos()),
				})
			}
		}
	}
	return hot
}

// funcDisplayName renders "Name" or "(Recv).Name" for diagnostics.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := ""
	switch t := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			recv = "*" + id.Name
		}
	case *ast.Ident:
		recv = t.Name
	}
	if recv == "" {
		return fd.Name.Name
	}
	return "(" + recv + ")." + fd.Name.Name
}
