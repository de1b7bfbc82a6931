package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{1, 19, 20, 21, 40, 100, 999, 1000, 5000, 100000} {
		pct, ok := tailPercentile(n)
		if n < 20 {
			if ok || pct != 50 {
				t.Errorf("n=%d: got p%g ok=%v, want the median and ok=false", n, pct, ok)
			}
			continue
		}
		if !ok || pct < 50 || pct > 99 {
			t.Errorf("n=%d: got p%g ok=%v", n, pct, ok)
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := percentile(xs, pct)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it, want at least 10", n, pct, beyond)
		}
		if n >= 1000 && pct != 99 {
			t.Errorf("n=%d: p%g, want the p99 cap", n, pct)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestValidateDefs(t *testing.T) {
	if err := validateDefs(endToEnd, map[string]bool{}); err != nil {
		t.Error(err)
	}
	if err := validateDefs(perLayer, map[string]bool{}); err != nil {
		t.Error(err)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed 128 and 16", len(perLayer), len(endToEnd))
	}
	for _, bad := range []metricDef{
		{"has space", "ms", "lower", 0},
		{"_leading", "ms", "lower", 0},
		{strings.Repeat("x", 65), "ms", "lower", 0},
		{"ok", "milli seconds", "lower", 0},
		{"ok", "ms", "faster", 0},
		{"ok", "ms", "lower", 0.3},
	} {
		if err := validateDefs([]metricDef{bad}, map[string]bool{}); err == nil {
			t.Errorf("%+v was accepted", bad)
		}
	}
	if err := validateDefs([]metricDef{{"a", "ms", "lower", 0}, {"a", "s", "lower", 0}}, map[string]bool{}); err == nil {
		t.Error("a name used twice was accepted")
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
}

// TestBenchmarkJSONAgrees pins BENCHMARK.json to what the program prints.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	agree := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %g", kind, d.Name, d.Bound)
			}
		}
	}
	agree("end_to_end", doc.EndToEnd, endToEnd, true)
	agree("per_layer", doc.PerLayer, perLayer, false)
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a: 10..50 is covered once
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "late", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "leaf", Start: 12, End: 18, Parent: 1},
	}
	want := []int64{100 - 40 - 10 - 10, 20 - 6, 30, 10, 30, 6}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	var tr *tracer
	if id := tr.begin("x", "y", -1, 0); id != -1 {
		t.Errorf("a nil tracer opened span %d", id)
	}
	tr.end(-1)
	off := newTracer()
	if id := off.begin("x", "y", -1, 0); id != -1 || len(off.spans) != 0 {
		t.Error("a tracer that is off recorded a span")
	}
}

// lastLine parses the result line a run printed last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

func checkResult(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: printed %+v (present %v), declared unit %s", d.Name, v, ok, d.Unit)
		}
	}
}

// TestSmokeWorkloads runs every workload at smoke scale, untraced, and one of
// them traced; each run checks its own outputs and its goroutine baseline.
func TestSmokeWorkloads(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, w := range workloads {
		var out bytes.Buffer
		if code := run(options{workload: w.name, seed: 2, seconds: 0.05, smoke: true}, &out); code != 0 {
			t.Fatalf("%s: exit code %d\n%s", w.name, code, out.String())
		}
		r := lastLine(t, out.String())
		checkResult(t, r, endToEnd)
		for _, d := range endToEnd {
			if r.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.name, d.Name, r.Metrics[d.Name].Value)
			}
		}
	}
	var out bytes.Buffer
	spans := t.TempDir() + "/spans.jsonl"
	if code := run(options{workload: "serve-replay", seed: 2, seconds: 0.05, smoke: true, trace: 1, spans: spans}, &out); code != 0 {
		t.Fatalf("traced: exit code %d\n%s", code, out.String())
	}
	checkResult(t, lastLine(t, out.String()), perLayer)
	if data, err := os.ReadFile(spans); err != nil || !bytes.Contains(data, []byte(`"name":"replay.Run:`)) {
		t.Errorf("span file: %v; no replay.Run span in %d bytes", err, len(data))
	}
	if !goroutinesSettle(before) {
		t.Errorf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), before)
	}
}

func TestUnknownWorkloadAndBadFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run(options{workload: "nope", seconds: 1}, &out); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if code := run(options{workload: "plan", seconds: 0}, &out); code == 0 {
		t.Error("-seconds 0 exited 0")
	}
	if code := run(options{workload: "plan", seconds: 1, trace: 2}, &out); code == 0 {
		t.Error("-trace 2 exited 0")
	}
}
