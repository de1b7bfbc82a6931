// Command lint runs deepbatlint, the repo-specific static-analysis pass
// (internal/analysis), over the module.
//
// Usage:
//
//	go run ./cmd/lint ./...                          # whole module (default)
//	go run ./cmd/lint -json ./...                    # machine-readable findings
//	go run ./cmd/lint -time ./...                    # per-rule wall time
//	go run ./cmd/lint internal/analysis/testdata/src/determinism
//
// With `./...` (or no arguments) every package in the module is analyzed,
// excluding testdata fixtures. Explicit directory arguments are analyzed
// as-is, which is how the seeded-violation fixtures are exercised by hand.
//
// The module is parsed and type-checked exactly once per invocation; all
// rules share the loaded Program, so running the full suite costs one load
// plus six cheap AST walks (-time shows the per-rule split).
//
// Exit status: 0 when clean, 1 when findings are reported, 2 on load or
// type-check errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"deepbat/internal/analysis"
)

// jsonFinding is the -json wire form of one diagnostic, stable for CI
// annotation tooling.
type jsonFinding struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Col    int    `json:"col"`
	Rule   string `json:"rule"`
	Reason string `json:"reason"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Rules    []jsonTiming  `json:"rules"`
}

type jsonTiming struct {
	Rule       string  `json:"rule"`
	DurationMS float64 `json:"duration_ms"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings and per-rule timings as JSON on stdout")
	timeOut := flag.Bool("time", false, "report per-rule wall time on stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lint [-json] [-time] [./... | package-dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var prog *analysis.Program
	if len(args) == 1 && args[0] == "./..." {
		prog, err = analysis.LoadModule(root)
	} else {
		dirs := make([]string, len(args))
		for i, a := range args {
			if dirs[i], err = filepath.Abs(a); err != nil {
				break
			}
		}
		if err == nil {
			prog, err = analysis.LoadDirs(root, dirs)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}

	findings, times := analysis.RunTimed(prog, analysis.Analyzers())
	cwd, _ := os.Getwd()
	rel := func(name string) string {
		if cwd != "" {
			if r, err := filepath.Rel(cwd, name); err == nil {
				return r
			}
		}
		return name
	}

	if *jsonOut {
		report := jsonReport{Findings: []jsonFinding{}, Rules: []jsonTiming{}}
		for _, f := range findings {
			report.Findings = append(report.Findings, jsonFinding{
				File:   rel(f.Pos.Filename),
				Line:   f.Pos.Line,
				Col:    f.Pos.Column,
				Rule:   f.Rule,
				Reason: f.Msg,
			})
		}
		for _, rt := range times {
			report.Rules = append(report.Rules, jsonTiming{
				Rule:       rt.Rule,
				DurationMS: float64(rt.Duration.Microseconds()) / 1000,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "lint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", rel(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
		}
	}
	if *timeOut {
		for _, rt := range times {
			fmt.Fprintf(os.Stderr, "lint: %-22s %8.2fms\n", rt.Rule, float64(rt.Duration.Microseconds())/1000)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
