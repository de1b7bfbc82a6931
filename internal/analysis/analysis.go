// Package analysis implements deepbatlint, the repo-specific static-analysis
// pass that machine-checks the invariants the reproduction depends on:
// bit-determinism of the numeric core, tape-free inference, exact-float
// hygiene, goroutine join discipline, and silence of library packages. It is
// built entirely on the standard library (go/parser, go/ast, go/types) —
// honoring the repo's stdlib-only rule — and is driven by cmd/lint, which is
// wired into `make lint` / `make verify`.
//
// Rules (see DESIGN.md "Enforced invariants" for the rationale):
//
//   - determinism: no wall-clock reads or global math/rand in the numeric
//     core packages (tensor, nn, opt, surrogate, qsim, trace, arrival,
//     stats, batchopt).
//   - nograd-hygiene: no autograd-tape-building tensor operation reachable
//     from a function annotated `//deepbat:nograd` outside a tensor.NoGrad
//     scope.
//   - floatcompare: no ==/!= between floating-point operands outside
//     approved tolerance helpers (comparison against an exact constant zero
//     is permitted — it guards divisions, not numeric equality).
//   - goroutine-discipline: every `go` statement in a library package must
//     be joined (sync.WaitGroup.Wait, channel receive/range, or select) in
//     the same function.
//   - noprint: library packages under internal/ never write to the
//     process-global streams (fmt.Print*, package-level log, os.Stdout/err,
//     builtin print/println); telemetry belongs in internal/obs.
//   - obs-register: library code registers internal/obs metrics through the
//     error-returning methods, never the panicking Must* wrappers —
//     duplicate registration must error, not crash the process.
//
// Each rule is the only guard for its hazard. Allocation-free serving, pool
// hygiene and lock/atomic discipline are guarded by running code instead —
// AllocsPerRun budget tests, the poolcheck build tag, `go vet` copylocks
// and typed sync/atomic values (DESIGN.md "Retired rules").
//
// Deliberate exceptions are documented in the source with
//
//	//lint:allow <rule> <reason>
//
// on the offending line or the line directly above it. A directive without
// both a rule and a reason is itself reported (rule "directive"), as is a
// directive naming a rule that does not exist — exemptions can never be
// silent or silently stale. One comment may carry several directives
// (`//lint:allow ruleA why //lint:allow ruleB why`).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Package is one type-checked package under analysis.
type Package struct {
	Path  string // import path, e.g. deepbat/internal/tensor
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the full set of packages loaded for one lint run, plus the
// indexes analyzers share (function declarations across the whole module).
// A Program is loaded and type-checked once and then shared by every rule
// in the run — rules must not re-parse (see LoadModule / LoadDirs).
type Program struct {
	Fset     *token.FileSet
	Module   string // module path from go.mod
	Packages []*Package

	decls   map[*types.Func]*ast.FuncDecl
	declPkg map[*types.Func]*Package

	// allows is the parsed //lint:allow suppression set, built once per
	// program by buildAllows (Run does it).
	allows        map[allowKey]bool
	badDirectives []Finding
	allowsBuilt   bool
}

// Analyzer is one lint rule. Analyze is called once per loaded package and
// may consult the whole Program (the nograd-hygiene rule walks the
// module-wide call graph).
type Analyzer interface {
	Name() string
	Analyze(prog *Program, pkg *Package) []Finding
}

// Analyzers returns the full deepbatlint rule set.
func Analyzers() []Analyzer {
	return []Analyzer{
		&Determinism{},
		&NoGrad{},
		&FloatCompare{},
		&Goroutine{},
		&NoPrint{},
		&ObsRegister{},
	}
}

// buildIndexes populates the cross-package function-declaration maps.
func (p *Program) buildIndexes() {
	p.decls = make(map[*types.Func]*ast.FuncDecl)
	p.declPkg = make(map[*types.Func]*Package)
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					p.decls[fn] = fd
					p.declPkg[fn] = pkg
				}
			}
		}
	}
}

// inLibraryScope reports whether pkg is library code: the module root
// facade or anything under internal/. cmd/ and examples/ are user-facing
// and exempt from the library-only rules.
func (p *Program) inLibraryScope(pkg *Package) bool {
	return pkg.Path == p.Module || strings.HasPrefix(pkg.Path, p.Module+"/internal/")
}

// calleeFunc resolves the static callee of a call expression, or nil when
// the callee is not a plain function or method (conversion, func value,
// builtin, interface method lookup still yields the interface *types.Func —
// callers that need a body must look it up in Program.decls).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// hasFileDirective reports whether any comment in any file of the package
// is exactly the given directive (e.g. "deepbat:deterministic").
func (pkg *Package) hasFileDirective(directive string) bool {
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == directive {
					return true
				}
			}
		}
	}
	return false
}

// funcHasAnnotation reports whether the declaration's doc comment carries
// the given directive (e.g. "deepbat:nograd").
func funcHasAnnotation(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == directive {
			return true
		}
	}
	return false
}

// allowKey identifies one (file, line, rule) suppression.
type allowKey struct {
	file string
	line int
	rule string
}

// KnownRules returns the names every //lint:allow directive may legally
// reference: the full rule set plus "directive" itself. Validation always
// uses the full set, even when a run selects a rule subset — a waiver for an
// unselected rule is not an unknown rule.
func KnownRules() map[string]bool {
	known := map[string]bool{"directive": true}
	for _, a := range Analyzers() {
		known[a.Name()] = true
	}
	return known
}

// buildAllows parses every //lint:allow directive in the program into the
// suppression set, recording malformed directives (missing rule or reason)
// and directives naming unknown rules as findings. One comment may carry
// several directives; each needs its own rule and reason. Idempotent.
func (p *Program) buildAllows() {
	if p.allowsBuilt {
		return
	}
	p.allowsBuilt = true
	p.allows = make(map[allowKey]bool)
	known := KnownRules()
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					// Only a comment that starts with the marker is a
					// directive; prose that merely mentions //lint:allow
					// mid-sentence is not parsed.
					if !strings.HasPrefix(c.Text, "//lint:allow") {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					// Split the comment on directive markers: the text after
					// each marker up to the next marker is one directive.
					parts := strings.Split(c.Text, "//lint:allow")
					for _, part := range parts[1:] {
						fields := strings.Fields(part)
						if len(fields) < 2 {
							p.badDirectives = append(p.badDirectives, Finding{
								Pos:  pos,
								Rule: "directive",
								Msg:  "malformed //lint:allow: need `//lint:allow <rule> <reason>`",
							})
							continue
						}
						if !known[fields[0]] {
							p.badDirectives = append(p.badDirectives, Finding{
								Pos:  pos,
								Rule: "directive",
								Msg:  fmt.Sprintf("//lint:allow names unknown rule %q; a stale or misspelled waiver would silently suppress nothing", fields[0]),
							})
							continue
						}
						p.allows[allowKey{pos.Filename, pos.Line, fields[0]}] = true
					}
				}
			}
		}
	}
}

// allowedAt reports whether a finding of the given rule at pos is waived by
// a directive on its line or the line directly above. buildAllows must have
// run.
func (p *Program) allowedAt(pos token.Position, rule string) bool {
	return p.allows[allowKey{pos.Filename, pos.Line, rule}] ||
		p.allows[allowKey{pos.Filename, pos.Line - 1, rule}]
}

// RuleTime is the wall time one rule spent analyzing the whole program
// (type-checking is shared and excluded — the program is loaded once per
// run, not once per rule).
type RuleTime struct {
	Rule     string
	Duration time.Duration
}

// Run executes the analyzers over every loaded package, filters findings
// through //lint:allow directives, and returns the survivors sorted by
// position. Malformed directives are themselves findings.
func Run(prog *Program, analyzers []Analyzer) []Finding {
	findings, _ := RunTimed(prog, analyzers)
	return findings
}

// RunTimed is Run plus a per-rule wall-time report, in analyzer order.
func RunTimed(prog *Program, analyzers []Analyzer) ([]Finding, []RuleTime) {
	prog.buildAllows()
	findings := append([]Finding(nil), prog.badDirectives...)
	times := make([]RuleTime, 0, len(analyzers))
	for _, a := range analyzers {
		start := time.Now()
		for _, pkg := range prog.Packages {
			for _, f := range a.Analyze(prog, pkg) {
				if prog.allowedAt(f.Pos, f.Rule) {
					continue
				}
				findings = append(findings, f)
			}
		}
		times = append(times, RuleTime{Rule: a.Name(), Duration: time.Since(start)})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return findings, times
}
