package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// concurrencyPkgs are the packages the concurrency check sweeps: everything
// OUTSIDE the determinism boundary, where goroutines, wall clocks, and shared
// mutable state legitimately meet. The deterministic core is single-goroutine
// by construction (the determinism check enforces that), so mutex discipline
// is only a question out here.
var concurrencyPkgs = []string{
	"internal/serve",
	"internal/obs",
	"internal/trace",
	"cmd/tdserve",
}

// concurrency statically enforces the locking discipline of the concurrent
// layers with two rules:
//
//   - inconsistent mutex guards: a struct field written under the struct's
//     own mutex on some paths but touched without it on others (the guard
//     set is derived from accesses inside Lock/Unlock windows; methods named
//     *Locked are called with the mutex held, so every access in them counts
//     as guarded);
//   - blocking while holding a mutex: channel operations without a default,
//     sync.WaitGroup/Cond Wait, time.Sleep, and net/http round trips inside
//     a Lock/Unlock window stall every other goroutine contending the lock.
//
// Locks copied by value are go vet's copylocks check, and the state the
// layers share through sync/atomic is held in typed atomics, which a plain
// access does not compile against.
func concurrency(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !pathMatches(pkg.Path, concurrencyPkgs...) {
			continue
		}
		diags = append(diags, guardConsistency(prog, pkg)...)
		diags = append(diags, lockBlocking(prog, pkg)...)
	}
	return diags
}

// --- inconsistent mutex guards ----------------------------------------------

// fieldAccess is one receiver-rooted field access inside a method.
type fieldAccess struct {
	pos     token.Pos
	guarded bool
	write   bool
}

// guardConsistency derives, per struct with a mutex field, which fields are
// written inside Lock/Unlock windows of the struct's own mutexes, then flags
// accesses to those fields outside any window.
func guardConsistency(prog *Program, pkg *Package) []Diagnostic {
	structs := mutexStructs(pkg)
	if len(structs) == 0 {
		return nil
	}
	// accesses[struct][field] accumulates across methods.
	accesses := map[*types.Named]map[*types.Var][]fieldAccess{}
	for _, f := range pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			named := recvNamed(pkg, fd)
			if named == nil || structs[named] == nil {
				continue
			}
			// Constructors touch the struct before it is shared.
			if buildsValueOf(pkg, fd, named) {
				continue
			}
			recv := recvVar(pkg, fd)
			if recv == nil {
				continue
			}
			if accesses[named] == nil {
				accesses[named] = map[*types.Var][]fieldAccess{}
			}
			// *Locked methods run with the mutex held by contract.
			held := strings.HasSuffix(fd.Name.Name, "Locked") || strings.HasSuffix(fd.Name.Name, "locked")
			scanMethod(pkg, fd, named, structs[named], recv, held, accesses[named])
		}
	}
	var diags []Diagnostic
	for named, fields := range accesses {
		for fv, accs := range fields {
			guardedWrite := false
			for _, a := range accs {
				if a.guarded && a.write {
					guardedWrite = true
					break
				}
			}
			if !guardedWrite {
				continue
			}
			for _, a := range accs {
				if a.guarded {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos: prog.Fset.Position(a.pos),
					Message: fmt.Sprintf("%s.%s is written under the mutex on other paths but accessed without it here; "+
						"take the lock", named.Obj().Name(), fv.Name()),
				})
			}
		}
	}
	return diags
}

// mutexStructs maps each package-local struct type to its mutex fields.
func mutexStructs(pkg *Package) map[*types.Named][]*types.Var {
	out := map[*types.Named][]*types.Var{}
	for _, obj := range pkg.Info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.Pkg() != pkg.Types {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var mus []*types.Var
		for i := 0; i < st.NumFields(); i++ {
			if isMutexType(st.Field(i).Type()) {
				mus = append(mus, st.Field(i))
			}
		}
		if len(mus) > 0 {
			out[named] = mus
		}
	}
	return out
}

// isMutexType reports sync.Mutex / sync.RWMutex exactly.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// recvNamed resolves a method's receiver to its named struct type.
func recvNamed(pkg *Package, fd *ast.FuncDecl) *types.Named {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return nil
	}
	tn, ok := pkg.Info.Uses[id].(*types.TypeName)
	if !ok {
		return nil
	}
	named, _ := tn.Type().(*types.Named)
	return named
}

// recvVar returns the receiver variable (nil for anonymous receivers).
func recvVar(pkg *Package, fd *ast.FuncDecl) *types.Var {
	names := fd.Recv.List[0].Names
	if len(names) == 0 {
		return nil
	}
	v, _ := pkg.Info.Defs[names[0]].(*types.Var)
	return v
}

// buildsValueOf reports whether the function contains a composite literal of
// the named type — the constructor pattern, where the value is private and
// needs no locking.
func buildsValueOf(pkg *Package, fd *ast.FuncDecl, named *types.Named) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		t := pkg.Info.TypeOf(cl)
		for {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		if t == named || types.Identical(t, named) {
			found = true
			return false
		}
		return true
	})
	return found
}

// lockEvent is a Lock or Unlock call at a position: +1 opens a window, -1
// closes it. Deferred unlocks keep the window open to the end of the method.
type lockEvent struct {
	pos   token.Pos
	delta int
}

// scanMethod records receiver-rooted field accesses in fd with their
// guardedness, derived by a position-linear scan of Lock/Unlock calls on the
// struct's own mutex fields. The linear approximation (an access is guarded
// iff more Locks than Unlocks precede it textually) trades path sensitivity
// for zero false "guarded" windows on straight-line code, which is the shape
// of every critical section in this repository. held marks the whole body
// as guarded.
func scanMethod(pkg *Package, fd *ast.FuncDecl, named *types.Named, mus []*types.Var, recv *types.Var, held bool, out map[*types.Var][]fieldAccess) {
	muSet := map[*types.Var]bool{}
	for _, m := range mus {
		muSet[m] = true
	}
	structFields := map[*types.Var]bool{}
	st := named.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !muSet[f] && guardableField(f.Type()) {
			structFields[f] = true
		}
	}

	var events []lockEvent
	type rawAccess struct {
		v     *types.Var
		pos   token.Pos
		write bool
	}
	var raw []rawAccess

	walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			mv, name := mutexCallOn(pkg, n, recv, muSet)
			if mv == nil {
				break
			}
			switch name {
			case "Lock", "RLock":
				events = append(events, lockEvent{pos: n.Pos(), delta: +1})
			case "Unlock", "RUnlock":
				deferred := false
				for i := len(stack) - 1; i >= 0; i-- {
					if _, ok := stack[i].(*ast.DeferStmt); ok {
						deferred = true
						break
					}
				}
				if !deferred {
					events = append(events, lockEvent{pos: n.Pos(), delta: -1})
				}
			}
		case *ast.SelectorExpr:
			base, ok := n.X.(*ast.Ident)
			if !ok || pkg.Info.Uses[base] != recv {
				break
			}
			fv, _ := pkg.Info.Uses[n.Sel].(*types.Var)
			if fv == nil || !structFields[fv] {
				break
			}
			raw = append(raw, rawAccess{v: fv, pos: n.Pos(), write: isWriteContext(n, stack)})
		}
		return true
	})

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	depthAt := func(pos token.Pos) int {
		d := 0
		for _, e := range events {
			if e.pos >= pos {
				break
			}
			d += e.delta
		}
		return d
	}
	for _, a := range raw {
		out[a.v] = append(out[a.v], fieldAccess{pos: a.pos, guarded: held || depthAt(a.pos) > 0, write: a.write})
	}
}

// guardableField excludes fields that synchronize themselves: atomics,
// channels, and the sync package's own types.
func guardableField(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Chan); ok {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return true
	}
	if pkg := named.Obj().Pkg(); pkg != nil {
		switch pkg.Path() {
		case "sync", "sync/atomic":
			return false
		}
	}
	return true
}

// mutexCallOn matches recv.mu.Lock()-shaped calls against the struct's mutex
// fields, returning the mutex field and method name.
func mutexCallOn(pkg *Package, call *ast.CallExpr, recv *types.Var, muSet map[*types.Var]bool) (*types.Var, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	base, ok := inner.X.(*ast.Ident)
	if !ok || pkg.Info.Uses[base] != recv {
		return nil, ""
	}
	mv, _ := pkg.Info.Uses[inner.Sel].(*types.Var)
	if mv == nil || !muSet[mv] {
		return nil, ""
	}
	return mv, sel.Sel.Name
}

// isWriteContext reports whether the selector is being assigned to (or
// address-taken, which may alias a write).
func isWriteContext(sel *ast.SelectorExpr, stack []ast.Node) bool {
	var child ast.Node = sel
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == child {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == child
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				return true
			}
			return false
		case *ast.SelectorExpr, *ast.IndexExpr:
			child = stack[i].(ast.Node)
		default:
			return false
		}
	}
	return false
}

// --- blocking calls while holding a mutex -----------------------------------

// lockBlocking flags blocking operations positioned inside a Lock/Unlock
// window of any mutex-typed expression. The window scan is position-linear
// per function, with deferred Unlocks extending the window to the function
// end — which is exactly when holding the lock across a block matters most.
func lockBlocking(prog *Program, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, blockingInFunc(prog, pkg, fd)...)
		}
	}
	return diags
}

func blockingInFunc(prog *Program, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var events []lockEvent
	type blocker struct {
		pos  token.Pos
		what string
	}
	var blockers []blocker

	walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A goroutine body (or deferred closure) runs on its own
			// schedule; its lock events and blockers are not this function's.
			// Scanning it separately keeps windows from leaking across.
			return false
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if ok && isMutexMethodCall(pkg, sel) {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					events = append(events, lockEvent{pos: n.Pos(), delta: +1})
				case "Unlock", "RUnlock":
					deferred := false
					for i := len(stack) - 1; i >= 0; i-- {
						if _, ok := stack[i].(*ast.DeferStmt); ok {
							deferred = true
							break
						}
					}
					if !deferred {
						events = append(events, lockEvent{pos: n.Pos(), delta: -1})
					}
				}
				break
			}
			if what, ok := blockingCall(pkg, n); ok {
				blockers = append(blockers, blocker{pos: n.Pos(), what: what})
			}
		case *ast.SendStmt:
			if !inSelectWithDefault(stack) {
				blockers = append(blockers, blocker{pos: n.Pos(), what: "channel send"})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inSelectWithDefault(stack) {
				blockers = append(blockers, blocker{pos: n.Pos(), what: "channel receive"})
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				blockers = append(blockers, blocker{pos: n.Pos(), what: "select without default"})
			}
		}
		return true
	})
	if len(events) == 0 || len(blockers) == 0 {
		return nil
	}
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	var diags []Diagnostic
	for _, b := range blockers {
		d := 0
		for _, e := range events {
			if e.pos >= b.pos {
				break
			}
			d += e.delta
		}
		if d > 0 {
			diags = append(diags, Diagnostic{
				Pos: prog.Fset.Position(b.pos),
				Message: b.what + " while holding a mutex: every goroutine contending the lock stalls behind this; " +
					"move it outside the critical section",
			})
		}
	}
	return diags
}

// isMutexMethodCall matches <expr>.Lock/Unlock/RLock/RUnlock where <expr> has
// a mutex type (directly or embedded via method selection on sync types).
func isMutexMethodCall(pkg *Package, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return false
	}
	t := pkg.Info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return isMutexType(t)
}

// blockingCall classifies calls that park the goroutine: WaitGroup/Cond
// Wait, time.Sleep, and net/http round trips.
func blockingCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch obj.Pkg().Path() {
	case "sync":
		if sel.Sel.Name == "Wait" {
			return "sync Wait", true
		}
	case "time":
		if sel.Sel.Name == "Sleep" {
			return "time.Sleep", true
		}
	case "net/http":
		switch sel.Sel.Name {
		case "Get", "Post", "PostForm", "Head", "Do":
			return "HTTP round trip", true
		}
	}
	return "", false
}

// inSelectWithDefault reports whether the node sits in a comm clause of a
// select that has a default (a nonblocking try).
func inSelectWithDefault(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if sel, ok := stack[i].(*ast.SelectStmt); ok {
			return selectHasDefault(sel)
		}
	}
	return false
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
