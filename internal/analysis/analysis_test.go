package analysis_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"deepbat/internal/analysis"
)

// moduleRoot returns the repo root (two levels up from this package).
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %s has no go.mod: %v", root, err)
	}
	return root
}

// expectation is one expected finding: (file base name, line, rule).
type expectation struct {
	file string
	line int
	rule string
}

func (e expectation) String() string { return fmt.Sprintf("%s:%d: %s", e.file, e.line, e.rule) }

var (
	wantTrailing = regexp.MustCompile(`// want ([a-z-]+)\s*$`)
	wantNextLine = regexp.MustCompile(`^\s*// want-next ([a-z-]+)\s*$`)
)

// scanExpectations reads every .go file in dir and collects `// want <rule>`
// trailing markers (expected finding on the same line) and standalone
// `// want-next <rule>` lines (expected finding on the following line).
func scanExpectations(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			if m := wantNextLine.FindStringSubmatch(sc.Text()); m != nil {
				out = append(out, expectation{e.Name(), line + 1, m[1]})
				continue
			}
			if m := wantTrailing.FindStringSubmatch(sc.Text()); m != nil {
				out = append(out, expectation{e.Name(), line, m[1]})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return out
}

// runFixture lints one fixture package and returns its findings as
// expectations for comparison.
func runFixture(t *testing.T, root, name string) []expectation {
	t.Helper()
	dir := filepath.Join(root, "internal", "analysis", "testdata", "src", name)
	prog, err := analysis.LoadDirs(root, []string{dir})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	var got []expectation
	for _, f := range analysis.Run(prog, analysis.Analyzers()) {
		got = append(got, expectation{filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule})
	}
	return got
}

func sortedKeys(es []expectation) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.String()
	}
	sort.Strings(out)
	return out
}

// TestFixtures checks, for every analyzer fixture, that the findings match
// the `// want` annotations exactly — no missing findings, no extras, and
// //lint:allow suppression honored.
func TestFixtures(t *testing.T) {
	root := moduleRoot(t)
	fixtures := []string{
		"determinism", "nograd", "floatcompare", "goroutine", "noprint",
		"obsregister", "badallow",
	}
	for _, name := range fixtures {
		name := name
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(root, "internal", "analysis", "testdata", "src", name)
			want := sortedKeys(scanExpectations(t, dir))
			got := sortedKeys(runFixture(t, root, name))
			if len(want) == 0 {
				t.Fatalf("fixture %s declares no expectations", name)
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("findings mismatch\n got:\n  %s\nwant:\n  %s",
					strings.Join(got, "\n  "), strings.Join(want, "\n  "))
			}
		})
	}
}

// TestRepoClean asserts the real repository lints clean — the gate that
// keeps every future PR honest about the invariants.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := moduleRoot(t)
	prog, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	findings := analysis.Run(prog, analysis.Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Errorf("repository is not lint-clean: %d finding(s)", len(findings))
	}
}

// TestRuleTimings runs the full rule suite over the whole module once and
// asserts the analysis phase fits a total wall-time budget. The budget
// excludes loading: the Program is type-checked once and shared, so each
// rule is a plain AST/type-info walk — if a rule starts re-parsing or
// walking superlinearly, this trips long before CI times out.
func TestRuleTimings(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := moduleRoot(t)
	prog, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	_, times := analysis.RunTimed(prog, analysis.Analyzers())
	if len(times) != len(analysis.Analyzers()) {
		t.Fatalf("got %d rule timings, want %d", len(times), len(analysis.Analyzers()))
	}
	var total time.Duration
	for _, rt := range times {
		if rt.Duration < 0 {
			t.Errorf("rule %s reports negative duration %v", rt.Rule, rt.Duration)
		}
		t.Logf("%-22s %v", rt.Rule, rt.Duration)
		total += rt.Duration
	}
	const budget = 5 * time.Second
	if total > budget {
		t.Errorf("full rule suite took %v over the shared Program, budget %v", total, budget)
	}
}

// TestFixtureViolationsAreLineAccurate spot-checks that findings carry real
// positions (file:line pointing inside the fixture), which cmd/lint prints.
func TestFixtureViolationsAreLineAccurate(t *testing.T) {
	root := moduleRoot(t)
	prog, err := analysis.LoadDirs(root, []string{
		filepath.Join(root, "internal", "analysis", "testdata", "src", "determinism"),
	})
	if err != nil {
		t.Fatal(err)
	}
	findings := analysis.Run(prog, analysis.Analyzers())
	if len(findings) == 0 {
		t.Fatal("expected findings in determinism fixture")
	}
	for _, f := range findings {
		if f.Pos.Line <= 0 || !strings.HasSuffix(f.Pos.Filename, "determinism.go") {
			t.Errorf("finding has bad position: %s", f)
		}
		if !strings.Contains(f.String(), "determinism.go") {
			t.Errorf("String() lacks filename: %s", f)
		}
	}
}
