package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolOwnership tracks values obtained from pool Get calls through an
// abstract interpretation of each function body: every local bound to a
// pooled value carries a state (live or released), branches fork and merge
// the state, and loops run their body twice so cross-iteration misuse is
// seen. Three classes of misuse are errors:
//
//   - double Put: releasing the same pooled value twice (including a
//     deferred Put racing an explicit one);
//   - use after Put: reading, passing, or storing through a pooled value
//     after it was returned to its pool;
//   - heap store: assigning a live pooled value to a field, global, map or
//     slice element, or sending it on a channel — pooled storage must not
//     outlive its Put, so escapes must either transfer ownership via
//     return or carry a reasoned //lint:allow waiver.
//
// Pools are recognized structurally: Get/Put methods on a named type whose
// name ends in "Pool" (sync.Pool, fixture pools), plus
// the gateway free-list functions by name (getWaiterLocked/grabSliceLocked
// acquire; putWaiter/recycleBatch/recycleBatchLocked release). Function
// parameters are not tracked — pool internals and helpers that receive a
// pooled value from their caller manage lifetimes the caller owns.
// Returning a pooled value transfers ownership out of the function and ends
// tracking, as does capture by a closure or wrapping in a composite
// literal (ownership is then too indirect for an intraprocedural check).
type PoolOwnership struct{}

// Name implements Analyzer.
func (*PoolOwnership) Name() string { return "pool-ownership" }

// poolGetFuncs and poolPutFuncs name the gateway free-list helpers that act
// as pool operations without living on a *Pool-suffixed type.
var poolGetFuncs = map[string]bool{
	"getWaiterLocked": true,
	"grabSliceLocked": true,
}

var poolPutFuncs = map[string]bool{
	"putWaiter":          true,
	"recycleBatch":       true,
	"recycleBatchLocked": true,
}

const (
	poolNone = iota
	poolGet
	poolPut
)

// classifyPoolCall reports whether call is a pool acquire, a pool release,
// or neither.
func classifyPoolCall(info *types.Info, call *ast.CallExpr) int {
	fn := calleeFunc(info, call)
	if fn == nil {
		return poolNone
	}
	name := fn.Name()
	if poolGetFuncs[name] {
		return poolGet
	}
	if poolPutFuncs[name] {
		return poolPut
	}
	if name != "Get" && name != "Put" {
		return poolNone
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return poolNone
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || !strings.HasSuffix(named.Obj().Name(), "Pool") {
		return poolNone
	}
	if name == "Get" {
		return poolGet
	}
	return poolPut
}

const (
	cellLive int8 = iota
	cellReleased
)

// pstate is the abstract state at one program point: which locals hold
// pooled values (vars maps each to a cell id; aliases share a cell) and
// each cell's lifecycle state.
type pstate struct {
	vars   map[*types.Var]int
	status map[int]int8
}

func newPstate() *pstate {
	return &pstate{vars: make(map[*types.Var]int), status: make(map[int]int8)}
}

func (s *pstate) clone() *pstate {
	c := newPstate()
	for v, id := range s.vars {
		c.vars[v] = id
	}
	for id, st := range s.status {
		c.status[id] = st
	}
	return c
}

// merge folds another branch's state into s: tracked vars are unioned and a
// cell released on any path is treated as released (conservative for
// use-after-put, which is the dangerous direction).
func (s *pstate) merge(o *pstate) {
	for v, id := range o.vars {
		if _, ok := s.vars[v]; !ok {
			s.vars[v] = id
		}
	}
	for id, st := range o.status {
		if st == cellReleased || s.status[id] == cellReleased {
			s.status[id] = cellReleased
		} else {
			s.status[id] = st
		}
	}
}

// deferredPut is a pool release registered with defer, applied when the
// function body has been walked.
type deferredPut struct {
	pos  token.Pos
	args []*types.Var
}

// poolWalker interprets one function body.
type poolWalker struct {
	prog     *Program
	pkg      *Package
	nextCell int
	deferred []deferredPut
	seen     map[string]bool // file:line:kind dedupe (loops walk bodies twice)
	findings []Finding
}

// Analyze implements Analyzer.
func (r *PoolOwnership) Analyze(prog *Program, pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &poolWalker{prog: prog, pkg: pkg, seen: make(map[string]bool)}
			st := newPstate()
			w.stmts(fd.Body.List, st)
			// Deferred puts run at return, in LIFO order, after every
			// explicit statement: an explicit Put of the same value is a
			// double release.
			for i := len(w.deferred) - 1; i >= 0; i-- {
				d := w.deferred[i]
				for _, v := range d.args {
					w.putVar(v, d.pos, st)
				}
			}
			out = append(out, w.findings...)
		}
	}
	return out
}

func (w *poolWalker) report(pos token.Pos, kind, format string, args ...interface{}) {
	p := w.prog.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d:%s", p.Filename, p.Line, kind)
	if w.seen[key] {
		return
	}
	w.seen[key] = true
	w.findings = append(w.findings, Finding{
		Pos:  p,
		Rule: "pool-ownership",
		Msg:  fmt.Sprintf(format, args...),
	})
}

// localVar resolves an identifier defined or used as a local variable.
func (w *poolWalker) localVar(id *ast.Ident) *types.Var {
	if id == nil || id.Name == "_" {
		return nil
	}
	obj := w.pkg.Info.Uses[id]
	if obj == nil {
		obj = w.pkg.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

// tracked returns the variable behind id if it currently holds a pooled
// value.
func (w *poolWalker) tracked(id *ast.Ident, st *pstate) (*types.Var, bool) {
	v := w.localVar(id)
	if v == nil {
		return nil, false
	}
	_, ok := st.vars[v]
	return v, ok
}

// useCheck flags a read of a pooled value after its Put.
func (w *poolWalker) useCheck(id *ast.Ident, st *pstate) {
	if v, ok := w.tracked(id, st); ok && st.status[st.vars[v]] == cellReleased {
		w.report(id.Pos(), "use", "pooled value %q used after Put", v.Name())
	}
}

// putVar transitions a variable's cell to released, flagging a double Put.
func (w *poolWalker) putVar(v *types.Var, pos token.Pos, st *pstate) {
	id, ok := st.vars[v]
	if !ok {
		return
	}
	if st.status[id] == cellReleased {
		w.report(pos, "double", "double Put of pooled value %q", v.Name())
		return
	}
	st.status[id] = cellReleased
}

// bind starts tracking v as a fresh live pooled value.
func (w *poolWalker) bind(v *types.Var, st *pstate) {
	w.nextCell++
	st.vars[v] = w.nextCell
	st.status[w.nextCell] = cellLive
}

// unbind stops tracking v (ownership transferred or obscured).
func (w *poolWalker) unbind(v *types.Var, st *pstate) {
	delete(st.vars, v)
}

// releaseAndUnbind use-checks then unbinds every tracked identifier inside
// e — for returns, composite-literal wrapping, and closure capture, where
// ownership leaves the intraprocedural frame.
func (w *poolWalker) releaseAndUnbind(e ast.Node, st *pstate) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, tracked := w.tracked(id, st); tracked {
				w.useCheck(id, st)
				w.unbind(v, st)
			}
		}
		return true
	})
}

// scanExpr walks an expression for pool releases, use-after-put reads,
// closure captures, and composite-literal wrapping.
func (w *poolWalker) scanExpr(e ast.Expr, st *pstate) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if classifyPoolCall(w.pkg.Info, n) == poolPut {
				w.handlePut(n, st)
				return false
			}
			return true
		case *ast.FuncLit:
			// A closure capturing a pooled value may use or release it on
			// any schedule; tracking ends at the capture.
			w.releaseAndUnbind(n.Body, st)
			return false
		case *ast.CompositeLit:
			w.releaseAndUnbind(n, st)
			return false
		case *ast.Ident:
			w.useCheck(n, st)
		}
		return true
	})
}

// handlePut processes one pool release call: tracked argument identifiers
// transition to released (double release is flagged), everything else is
// scanned normally.
func (w *poolWalker) handlePut(call *ast.CallExpr, st *pstate) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.scanExpr(sel.X, st)
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if v, tracked := w.tracked(id, st); tracked {
				if st.status[st.vars[v]] == cellReleased {
					w.report(call.Pos(), "double", "double Put of pooled value %q", v.Name())
				} else {
					st.status[st.vars[v]] = cellReleased
				}
				continue
			}
		}
		w.scanExpr(arg, st)
	}
}

// heapLHS reports whether an assignment target lives beyond the current
// frame: a field, dereference, element, or package-level variable.
func (w *poolWalker) heapLHS(lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	case *ast.Ident:
		v := w.localVar(lhs)
		return v != nil && v.Parent() == v.Pkg().Scope()
	}
	return false
}

// assign handles one assignment or short declaration.
func (w *poolWalker) assign(lhs, rhs []ast.Expr, pos token.Pos, st *pstate) {
	if len(lhs) == 1 && len(rhs) == 1 {
		l, r := ast.Unparen(lhs[0]), ast.Unparen(rhs[0])
		if call, ok := r.(*ast.CallExpr); ok && classifyPoolCall(w.pkg.Info, call) == poolGet {
			w.scanExpr(call, st)
			if id, ok := l.(*ast.Ident); ok {
				if v := w.localVar(id); v != nil {
					w.bind(v, st)
					return
				}
				return // blank identifier: result dropped back to the pool's problem
			}
			w.scanExpr(l, st)
			if w.heapLHS(l) {
				w.report(pos, "store", "pool Get result stored directly to a heap location; pooled storage must stay frame-local until Put")
			}
			return
		}
		if rid, ok := r.(*ast.Ident); ok {
			if v, tracked := w.tracked(rid, st); tracked {
				w.useCheck(rid, st)
				if id, ok := l.(*ast.Ident); ok {
					if lv := w.localVar(id); lv != nil {
						st.vars[lv] = st.vars[v] // alias: same cell
					}
					return
				}
				w.scanExpr(l, st)
				if w.heapLHS(l) && st.status[st.vars[v]] == cellLive {
					w.report(pos, "store", "live pooled value %q stored to the heap; it would outlive its Put", v.Name())
				}
				return
			}
		}
	}
	// General form: scan all sides; reassigned locals stop being tracked.
	for _, r := range rhs {
		w.scanExpr(r, st)
	}
	for _, l := range lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			if v := w.localVar(id); v != nil {
				w.unbind(v, st)
			}
			continue
		}
		w.scanExpr(l, st)
	}
}

// stmts interprets a statement list, returning whether every path through
// it terminates (return or panic-like branch), so callers can exclude dead
// branch states from merges.
func (w *poolWalker) stmts(list []ast.Stmt, st *pstate) bool {
	for _, s := range list {
		if w.stmt(s, st) {
			return true
		}
	}
	return false
}

func (w *poolWalker) stmt(s ast.Stmt, st *pstate) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.assign(s.Lhs, s.Rhs, s.Pos(), st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					lhs[i] = name
				}
				w.assign(lhs, vs.Values, vs.Pos(), st)
			}
		}
	case *ast.ExprStmt:
		w.scanExpr(s.X, st)
	case *ast.SendStmt:
		w.scanExpr(s.Value, st)
		if id, ok := ast.Unparen(s.Value).(*ast.Ident); ok {
			if v, tracked := w.tracked(id, st); tracked && st.status[st.vars[v]] == cellLive {
				w.report(s.Pos(), "store", "live pooled value %q sent on a channel; the receiver outlives this frame's Put", v.Name())
				w.unbind(v, st)
			}
		}
		w.scanExpr(s.Chan, st)
	case *ast.IncDecStmt:
		w.scanExpr(s.X, st)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			w.scanExpr(res, st)
			w.releaseAndUnbind(res, st)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto: path leaves this statement list.
		return true
	case *ast.DeferStmt:
		if classifyPoolCall(w.pkg.Info, s.Call) == poolPut {
			d := deferredPut{pos: s.Pos()}
			for _, arg := range s.Call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					if v, tracked := w.tracked(id, st); tracked {
						d.args = append(d.args, v)
						continue
					}
				}
				w.scanExpr(arg, st)
			}
			w.deferred = append(w.deferred, d)
			return false
		}
		w.scanExpr(s.Call, st)
	case *ast.GoStmt:
		// The spawned goroutine runs on its own schedule: captured pooled
		// values leave this frame's custody.
		w.releaseAndUnbind(s.Call, st)
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.scanExpr(s.Cond, st)
		thenSt := st.clone()
		thenTerm := w.stmts(s.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			*st = *thenSt
			st.merge(elseSt)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.scanExpr(s.Cond, st)
		// Two passes over the body: the second sees state the first
		// produced, which surfaces cross-iteration use-after-put.
		for i := 0; i < 2; i++ {
			bs := st.clone()
			w.stmts(s.Body.List, bs)
			if s.Post != nil {
				w.stmt(s.Post, bs)
			}
			st.merge(bs)
		}
	case *ast.RangeStmt:
		w.scanExpr(s.X, st)
		for i := 0; i < 2; i++ {
			bs := st.clone()
			w.stmts(s.Body.List, bs)
			st.merge(bs)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.scanExpr(s.Tag, st)
		w.branches(clauseBodies(s.Body), st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.stmt(s.Assign, st)
		w.branches(clauseBodies(s.Body), st)
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm != nil {
				w.stmt(cc.Comm, st)
			}
			bodies = append(bodies, cc.Body)
		}
		w.branches(bodies, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	}
	return false
}

// branches runs each alternative body from a copy of the incoming state
// and merges the survivors (plus the fall-through pre-state, since no
// alternative may match).
func (w *poolWalker) branches(bodies [][]ast.Stmt, st *pstate) {
	pre := st.clone()
	for _, body := range bodies {
		bs := pre.clone()
		if !w.stmts(body, bs) {
			st.merge(bs)
		}
	}
}

func clauseBodies(block *ast.BlockStmt) [][]ast.Stmt {
	var bodies [][]ast.Stmt
	for _, c := range block.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			bodies = append(bodies, cc.Body)
		}
	}
	return bodies
}
