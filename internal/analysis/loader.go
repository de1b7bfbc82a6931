package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loader parses and type-checks module packages on demand. Stdlib imports
// are resolved from $GOROOT/src by the go/importer source importer (with
// cgo disabled so pure-Go fallbacks are used); module-internal imports are
// resolved recursively by the loader itself, so the whole pipeline works
// offline with nothing but the Go toolchain installed.
type loader struct {
	fset    *token.FileSet
	root    string // module root (absolute)
	module  string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*Package // by import path, fully checked
	loading map[string]bool     // cycle detection
}

func newLoader(root string) (*loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(abs)
	if err != nil {
		return nil, err
	}
	// The source importer type-checks stdlib packages from $GOROOT/src.
	// Disable cgo so packages with C dependencies (net, via net/http) fall
	// back to their pure-Go implementations instead of failing to parse.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		root:    abs,
		module:  module,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// modulePath reads the module declaration from go.mod in dir.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s/go.mod", dir)
}

// Import implements types.Importer: module-internal paths are loaded from
// source inside the module; everything else is delegated to the stdlib
// source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path, l.dirFor(path))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module-internal import path to its directory.
func (l *loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	rel := strings.TrimPrefix(path, l.module+"/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// pathFor maps a directory inside the module to its import path.
func (l *loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.root)
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

// load parses and type-checks the package in dir (identified by its import
// path), memoizing the result. Test files are not part of the lint surface.
func (l *loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses every non-test .go file in dir (not recursive), with
// comments retained for directive handling. Build constraints are honoured
// under the default tag set, so tag-gated file pairs (poolcheck on/off)
// contribute exactly one declaration each — the same view `go build` sees.
func (l *loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// packageDirs walks the module tree and returns every directory containing
// buildable Go files, skipping testdata (lint fixtures contain deliberate
// violations), hidden directories, and vendor.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// Deduplicate (one entry per .go file above).
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}

// LoadModule loads every package of the module rooted at root (the
// `./...` pattern), excluding testdata fixtures.
func LoadModule(root string) (*Program, error) {
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	return LoadDirs(root, dirs)
}

// LoadDirs loads the given package directories (absolute or relative to
// root) within the module rooted at root. Directories under testdata are
// accepted — this is how fixture packages are loaded explicitly.
func LoadDirs(root string, dirs []string) (*Program, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: l.fset, Module: l.module}
	for _, dir := range dirs {
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.root, dir)
		}
		dir = filepath.Clean(dir)
		path, err := l.pathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}
