package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc enforces the zero-alloc serving discipline statically: a
// function annotated `//deepbat:hotpath` promises that its whole statically
// resolvable call closure performs no heap allocation on the paths it owns.
// The dynamic counterparts — the testing.AllocsPerRun gate in gateway's
// TestDoZeroAllocSteadyState and the poolcheck poisoner — only see the
// branches a test happens to execute; this rule also covers cold branches (retry loops, pool misses,
// deadline sweeps), which is where allocation regressions hide.
//
// Flagged inside the closure:
//
//   - make / new builtins, and append (which may grow beyond capacity)
//   - slice and map literals, and composite literals that escape via &
//   - func literals (closure headers), goroutine launches, sort.Slice-style
//     closure takers
//   - interface boxing of non-pointer-shaped arguments at call sites, and
//     variadic calls (the argument slice is allocated per call)
//   - fmt.*, errors.New, string concatenation and string<->[]byte/[]rune
//     conversions, and a curated set of allocating stdlib constructors
//     (time.NewTimer/AfterFunc/NewTicker/After/Tick, strings/strconv
//     builders)
//   - map reads/writes/iteration and channel sends/receives — not
//     allocations, but synchronization and hashing hops the zero-alloc
//     serving path is designed around avoiding
//
// Allocations inside a panic(...) argument are exempt: the crash path has
// already left the hot path, and shape-check panics are how the kernels
// report contract violations.
//
// A `//lint:allow hotpath-alloc <reason>` directive at a call site both
// suppresses the line and cuts traversal into the callee — the waiver
// vouches for the subtree (e.g. a breaker-transition obs event on a cold
// branch), keeping waiver noise out of packages that are allowed to
// allocate in general. Dynamic calls (interface methods, func values) are
// not traversed: the rule is deliberately intraprocedural across such
// edges, and the AllocsPerRun benches remain the dynamic backstop.
type HotPathAlloc struct {
	facts map[*types.Func]*hotFact
	built bool
	// seen dedupes alloc findings by file:line — one offending line
	// produces one finding (and needs one waiver) even when several
	// detectors fire on it or several annotated roots reach it.
	seen map[string]bool
}

// hotFact summarizes one function body: its direct allocation sites and its
// unwaived, statically resolved call edges.
type hotFact struct {
	allocs  []allocSite
	callees []*types.Func
}

type allocSite struct {
	pos  token.Pos
	what string
}

func (*HotPathAlloc) Name() string { return "hotpath-alloc" }

// allocStdlib is the curated set of always-allocating stdlib functions the
// rule names explicitly (beyond package fmt, which is flagged wholesale).
var allocStdlib = map[string]map[string]bool{
	"errors": {"New": true, "Join": true},
	"time":   {"NewTimer": true, "NewTicker": true, "AfterFunc": true, "After": true, "Tick": true},
	"sort":   {"Slice": true, "SliceStable": true, "SliceIsSorted": true},
	"strings": {
		"Join": true, "Repeat": true, "Replace": true, "ReplaceAll": true,
		"Split": true, "SplitN": true, "Fields": true, "Map": true,
		"ToUpper": true, "ToLower": true, "Clone": true,
	},
	"strconv": {
		"Itoa": true, "FormatInt": true, "FormatUint": true,
		"FormatFloat": true, "Quote": true, "AppendInt": true,
		"AppendFloat": true, "AppendQuote": true,
	},
}

// pointerShaped reports whether values of t fit in an interface's data word
// without allocating (pointers, channels, maps, funcs, unsafe.Pointer).
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// isInterface reports whether t is an interface type.
func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// buildFacts computes per-function allocation summaries for every declared
// function in the program, honoring waived call sites (the edge is cut and
// the line suppressed) and panic arguments (crash path, exempt).
func (hp *HotPathAlloc) buildFacts(prog *Program) {
	hp.built = true
	hp.facts = make(map[*types.Func]*hotFact, len(prog.decls))
	hp.seen = make(map[string]bool)
	for fn, fd := range prog.decls {
		if fd.Body == nil {
			continue
		}
		hp.facts[fn] = hp.summarize(prog, prog.declPkg[fn], fd)
	}
}

// summarize builds the hotFact for one function body.
func (hp *HotPathAlloc) summarize(prog *Program, pkg *Package, fd *ast.FuncDecl) *hotFact {
	fact := &hotFact{}
	info := pkg.Info

	// Pass 1: source intervals exempt from the scan — waived call
	// expressions (the directive vouches for the whole call, including
	// multi-line argument lists) and panic arguments.
	type interval struct{ lo, hi token.Pos }
	var exempt []interval
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				exempt = append(exempt, interval{call.Pos(), call.End()})
				return true
			}
		}
		if prog.allowedAt(prog.Fset.Position(call.Pos()), "hotpath-alloc") {
			exempt = append(exempt, interval{call.Pos(), call.End()})
		}
		return true
	})
	exempted := func(pos token.Pos) bool {
		for _, iv := range exempt {
			if iv.lo <= pos && pos < iv.hi {
				return true
			}
		}
		return false
	}
	flag := func(pos token.Pos, what string) {
		if !exempted(pos) {
			fact.allocs = append(fact.allocs, allocSite{pos, what})
		}
	}

	// Pass 2: direct allocation sites and call edges.
	seenCallee := make(map[*types.Func]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			hp.scanCall(prog, info, n, flag, func(callee *types.Func) {
				if !exempted(n.Pos()) && !seenCallee[callee] {
					seenCallee[callee] = true
					fact.callees = append(fact.callees, callee)
				}
			})
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					flag(n.Pos(), "composite literal escapes to the heap via &")
				}
			}
			if n.Op == token.ARROW {
				flag(n.Pos(), "channel receive is a synchronization hop the zero-alloc path avoids")
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				flag(n.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				flag(n.Pos(), "map literal allocates")
			}
		case *ast.FuncLit:
			flag(n.Pos(), "func literal allocates a closure when it captures or escapes")
			return false // inner body is the closure's problem, not this frame's
		case *ast.GoStmt:
			flag(n.Pos(), "goroutine launch allocates a stack")
		case *ast.SendStmt:
			flag(n.Pos(), "channel send is a synchronization hop the zero-alloc path avoids")
		case *ast.IndexExpr:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
				flag(n.Pos(), "map access hashes on the hot path")
			}
		case *ast.RangeStmt:
			switch info.TypeOf(n.X).Underlying().(type) {
			case *types.Map:
				flag(n.Pos(), "map iteration on the hot path")
			case *types.Chan:
				flag(n.Pos(), "channel range is a synchronization hop the zero-alloc path avoids")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				t := info.TypeOf(n)
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					if tv, ok := info.Types[ast.Expr(n)]; !ok || tv.Value == nil {
						flag(n.Pos(), "string concatenation allocates")
					}
				}
			}
		}
		return true
	})
	return fact
}

// scanCall handles one call expression: builtin allocators, conversions,
// curated stdlib allocators, variadic argument slices, interface boxing,
// and the static call edge.
func (hp *HotPathAlloc) scanCall(prog *Program, info *types.Info, call *ast.CallExpr,
	flag func(token.Pos, string), edge func(*types.Func)) {
	// Type conversions: string <-> []byte/[]rune copy their contents.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		from := info.TypeOf(call.Args[0])
		to := tv.Type
		if from != nil && isStringByteConv(from, to) {
			flag(call.Pos(), "string/byte-slice conversion copies and allocates")
		}
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				flag(call.Pos(), "make allocates")
			case "new":
				flag(call.Pos(), "new allocates")
			case "append":
				flag(call.Pos(), "append may grow beyond capacity and allocate")
			}
			return
		}
	}
	fn := calleeFunc(info, call)
	if fn != nil && fn.Pkg() != nil {
		switch path := fn.Pkg().Path(); {
		case path == "fmt":
			flag(call.Pos(), "fmt."+fn.Name()+" formats through reflection and allocates")
		case allocStdlib[path] != nil && allocStdlib[path][fn.Name()]:
			flag(call.Pos(), path+"."+fn.Name()+" allocates")
		}
	}
	// Variadic calls allocate the argument slice unless spread (xs...).
	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	if sig != nil {
		if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= sig.Params().Len() {
			flag(call.Pos(), "variadic call allocates its argument slice")
		}
		// Interface boxing: a non-pointer-shaped concrete argument passed to
		// an interface parameter is boxed on the heap.
		np := sig.Params().Len()
		for i, arg := range call.Args {
			var param types.Type
			switch {
			case i < np-1 || (!sig.Variadic() && i < np):
				param = sig.Params().At(i).Type()
			case sig.Variadic() && call.Ellipsis == token.NoPos:
				if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
					param = s.Elem()
				}
			}
			at := info.TypeOf(arg)
			if param != nil && at != nil && isInterface(param) && !isInterface(at) &&
				!pointerShaped(at) && !types.Identical(at, types.Typ[types.UntypedNil]) {
				flag(arg.Pos(), "interface boxing of a non-pointer value allocates")
			}
		}
	}
	// The static call edge, for closure traversal.
	if fn != nil {
		if _, ok := prog.decls[fn]; ok {
			edge(fn)
		}
	}
}

// isStringByteConv reports whether the conversion from -> to copies between
// string and []byte/[]rune representations.
func isStringByteConv(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune ||
			e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(from) && isBytes(to)) || (isBytes(from) && isStr(to))
}

func (hp *HotPathAlloc) Analyze(prog *Program, pkg *Package) []Finding {
	if !hp.built {
		hp.buildFacts(prog)
	}
	var findings []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !funcHasAnnotation(fd, "deepbat:hotpath") {
				continue
			}
			root, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if root == nil {
				continue
			}
			findings = append(findings, hp.check(prog, root)...)
		}
	}
	return findings
}

// check walks the unwaived call closure from the annotated root and reports
// every reachable allocation site, with the call path that reaches it.
func (hp *HotPathAlloc) check(prog *Program, root *types.Func) []Finding {
	var findings []Finding
	parent := map[*types.Func]*types.Func{root: nil}
	queue := []*types.Func{root}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fact := hp.facts[fn]
		if fact == nil {
			continue
		}
		for _, a := range fact.allocs {
			pos := prog.Fset.Position(a.pos)
			lineKey := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			if hp.seen[lineKey] {
				continue
			}
			hp.seen[lineKey] = true
			via := ""
			if fn != root {
				via = " (reached via " + callPath(parent, fn) + ")"
			}
			findings = append(findings, Finding{
				Pos:  pos,
				Rule: "hotpath-alloc",
				Msg: fmt.Sprintf("%s, inside the //deepbat:hotpath closure of %s%s",
					a.what, root.Name(), via),
			})
		}
		for _, callee := range fact.callees {
			if _, ok := parent[callee]; !ok {
				parent[callee] = fn
				queue = append(queue, callee)
			}
		}
	}
	return findings
}

// callPath renders the BFS path root -> ... -> fn (root excluded).
func callPath(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var names []string
	for f := fn; f != nil && parent[f] != nil; f = parent[f] {
		names = append(names, f.Name())
	}
	out := ""
	for i := len(names) - 1; i >= 0; i-- {
		if out != "" {
			out += " -> "
		}
		out += names[i]
	}
	return out
}
