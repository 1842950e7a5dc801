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

// ConcurrencyCheck statically enforces the locking discipline of the
// concurrent layers with four dataflow rules:
//
//  1. mixed atomic/plain access — a variable passed to sync/atomic in one
//     place and read or written plainly in another has no consistent memory
//     ordering at all;
//  2. inconsistent mutex guards — a struct field written under the struct's
//     own mutex on some paths but touched without it on others (the guard
//     set is derived from accesses inside Lock/Unlock windows; methods named
//     *Locked are held-by-contract and trusted);
//  3. locks copied by value — a Mutex/RWMutex/WaitGroup (or any struct
//     containing one) passed, received, ranged, or assigned by value copies
//     the lock state and silently splits the critical section;
//  4. blocking while holding a mutex — channel operations without a default,
//     sync.WaitGroup/Cond Wait, time.Sleep, and net/http round trips inside
//     a Lock/Unlock window stall every other goroutine contending the lock.
func ConcurrencyCheck() *Check {
	c := &Check{
		Name: "concurrency",
		Doc:  "serve/obs/trace: no mixed atomic+plain access, consistent mutex guards, no locks copied by value, no blocking calls under a mutex",
	}
	c.Run = func(prog *Program) []Diagnostic {
		var diags []Diagnostic
		for _, pkg := range prog.Pkgs {
			if !pathMatches(pkg.Path, concurrencyPkgs...) {
				continue
			}
			diags = append(diags, atomicMix(prog, pkg)...)
			diags = append(diags, guardConsistency(prog, pkg)...)
			diags = append(diags, lockCopies(prog, pkg)...)
			diags = append(diags, lockBlocking(prog, pkg)...)
		}
		return diags
	}
	return c
}

// --- rule 1: mixed atomic/plain access --------------------------------------

// atomicMix flags variables that are passed by address to sync/atomic
// functions somewhere and accessed plainly somewhere else.
func atomicMix(prog *Program, pkg *Package) []Diagnostic {
	// Pass 1: every variable whose address reaches a sync/atomic call.
	atomicVars := map[*types.Var]bool{}
	for _, f := range pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pkg, call) {
				return true
			}
			for _, arg := range call.Args {
				u, ok := arg.(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					continue
				}
				// Only direct &x / &x.f name a trackable variable; &x.f[i]
				// names an element, whose siblings may legitimately be
				// accessed plainly (len, range).
				if v := baseVar(pkg, u.X); v != nil {
					atomicVars[v] = true
				}
			}
			return true
		})
	}
	if len(atomicVars) == 0 {
		return nil
	}
	// Pass 2: plain uses of those variables.
	var diags []Diagnostic
	for _, f := range pkg.Syntax {
		walkWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, _ := pkg.Info.Uses[id].(*types.Var)
			if v == nil || !atomicVars[v] {
				return true
			}
			if underAtomicCall(pkg, stack) {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos: prog.Fset.Position(id.Pos()),
				Message: fmt.Sprintf("%s is accessed via sync/atomic elsewhere but plainly here; "+
					"a mixed-ordering access races with every atomic one", v.Name()),
			})
			return true
		})
	}
	return diags
}

// isAtomicCall reports whether call invokes a sync/atomic package function.
func isAtomicCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pkg.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// baseVar resolves &x or &x.f to the variable it addresses (nil for indexed
// or more deeply nested expressions).
func baseVar(pkg *Package, e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.Ident:
		v, _ := pkg.Info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := pkg.Info.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}

// underAtomicCall reports whether the node whose ancestor stack is given sits
// inside an argument of a sync/atomic call.
func underAtomicCall(pkg *Package, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if call, ok := stack[i].(*ast.CallExpr); ok && isAtomicCall(pkg, call) {
			return true
		}
	}
	return false
}

// --- rule 2: inconsistent mutex guards --------------------------------------

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
			// *Locked methods hold the mutex by contract; constructors touch
			// the struct before it is shared.
			if strings.HasSuffix(fd.Name.Name, "Locked") || strings.HasSuffix(fd.Name.Name, "locked") ||
				buildsValueOf(pkg, fd, named) {
				continue
			}
			recv := recvVar(pkg, fd)
			if recv == nil {
				continue
			}
			if accesses[named] == nil {
				accesses[named] = map[*types.Var][]fieldAccess{}
			}
			scanMethod(pkg, fd, named, structs[named], recv, accesses[named])
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
						"lock it or document the field as load-bearing unguarded", named.Obj().Name(), fv.Name()),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool { return lessPos(diags[i].Pos, diags[j].Pos) })
	return diags
}

func lessPos(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
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
// of every critical section in this repository.
func scanMethod(pkg *Package, fd *ast.FuncDecl, named *types.Named, mus []*types.Var, recv *types.Var, out map[*types.Var][]fieldAccess) {
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
		out[a.v] = append(out[a.v], fieldAccess{pos: a.pos, guarded: depthAt(a.pos) > 0, write: a.write})
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

// --- rule 3: locks copied by value ------------------------------------------

// lockCopies flags lock-containing values passed, received, returned,
// assigned, or ranged by value.
func lockCopies(prog *Program, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, what string, t types.Type) {
		diags = append(diags, Diagnostic{
			Pos:     prog.Fset.Position(pos),
			Message: fmt.Sprintf("%s copies %s by value; the lock state forks and the critical section silently splits — pass a pointer", what, t.String()),
		})
	}
	for _, f := range pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					for _, fl := range n.Recv.List {
						if t := pkg.Info.TypeOf(fl.Type); t != nil && containsLock(t) {
							report(fl.Pos(), "receiver", t)
						}
					}
				}
				if n.Type.Params != nil {
					for _, fl := range n.Type.Params.List {
						if t := pkg.Info.TypeOf(fl.Type); t != nil && containsLock(t) {
							report(fl.Pos(), "parameter", t)
						}
					}
				}
				if n.Type.Results != nil {
					for _, fl := range n.Type.Results.List {
						if t := pkg.Info.TypeOf(fl.Type); t != nil && containsLock(t) {
							report(fl.Pos(), "result", t)
						}
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if !copyableExpr(rhs) {
						continue
					}
					// Assigning to the blank identifier discards the copy.
					if i < len(n.Lhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
							continue
						}
					}
					if t := pkg.Info.TypeOf(rhs); t != nil && containsLock(t) {
						pos := rhs.Pos()
						if i < len(n.Lhs) {
							pos = n.Lhs[i].Pos()
						}
						report(pos, "assignment", t)
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					if t := pkg.Info.TypeOf(n.Value); t != nil && containsLock(t) {
						report(n.Value.Pos(), "range value", t)
					}
				}
			}
			return true
		})
	}
	return diags
}

// copyableExpr reports expressions whose evaluation copies an existing value
// (identifiers, field selections, derefs, indexing) as opposed to fresh
// construction (composite literals, calls, conversions).
func copyableExpr(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	}
	return false
}

// containsLock reports whether t (not a pointer to t) transitively contains a
// type with pointer-receiver Lock and Unlock methods — sync.Mutex, RWMutex,
// and anything embedding a noCopy-style guard (sync.WaitGroup, sync.Once).
func containsLock(t types.Type) bool {
	return containsLockRec(t, map[types.Type]bool{})
}

func containsLockRec(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if hasLockMethods(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLockRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLockRec(u.Elem(), seen)
	}
	return false
}

// hasLockMethods reports a Lock/Unlock pair on *t.
func hasLockMethods(t types.Type) bool {
	if _, ok := t.(*types.Named); !ok {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	var lock, unlock bool
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Lock":
			lock = true
		case "Unlock":
			unlock = true
		}
	}
	return lock && unlock
}

// --- rule 4: blocking calls while holding a mutex ---------------------------

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
