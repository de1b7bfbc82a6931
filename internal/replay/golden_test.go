// Golden replay reports: the text, JSON and metric-snapshot bytes cmd/replay
// prints for a fixed set of replays, captured in testdata/golden/. The
// serving path and the report fold may be rebuilt for speed, but every byte a
// user reads must stay where it was; TestReportByteIdentical only compares a
// binary with itself, this test compares it with the captures.
//
// Regenerate (only when a change deliberately moves report bytes):
//
//	UPDATE_REPLAY_GOLDEN=1 go test -run TestReplayGoldenBytes ./internal/replay/
package replay

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"deepbat/internal/fault"
	"deepbat/internal/fleet"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/workload"
)

// goldenTrace is the named workload's default spec at 2 paper-hours of 10 s.
func goldenTrace(t *testing.T, name string) *workload.Trace {
	t.Helper()
	spec := workload.DefaultSpec(name)
	spec.Hours, spec.HourSeconds = 2, 10
	tr, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// indentJSON renders a report as cmd/replay -json does.
func indentJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenRun replays one single-gateway case and returns its three documents:
// the text table, the JSON report and the gateway's metric snapshot.
func goldenRun(t *testing.T, c Config) map[string][]byte {
	t.Helper()
	reg := obs.NewRegistry()
	c.Obs = reg
	rep, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	var text, snap bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"txt": text.Bytes(), "json": indentJSON(t, rep), "metrics.json": snap.Bytes()}
}

// goldenFleet replays the 3-class corrburst trace through a fleet under the
// planner's assignment (strictest class 0.2 s, each next one 4x looser,
// merging on, two shards per group so the bytes do not depend on GOMAXPROCS).
func goldenFleet(t *testing.T) map[string][]byte {
	t.Helper()
	tr := goldenTrace(t, "corrburst")
	p := fleetPlanFor(tr)
	for i := range p.Classes {
		p.Classes[i].Shards = 2
	}
	windows := make([][]float64, len(p.Classes))
	for _, rq := range tr.Reqs {
		windows[rq.Class] = append(windows[rq.Class], rq.AtS)
	}
	a, err := fleet.Optimize(p, windows, fleet.OptimizerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunFleet(FleetConfig{Trace: tr, Plan: p, Assignment: a})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"txt": text.Bytes(), "json": indentJSON(t, rep)}
}

// TestReplayGoldenBytes byte-compares every golden replay against its
// captures. With UPDATE_REPLAY_GOLDEN=1 it rewrites the captures instead.
func TestReplayGoldenBytes(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) map[string][]byte
	}{
		{"azure-shards1", func(t *testing.T) map[string][]byte {
			return goldenRun(t, Config{Trace: goldenTrace(t, "azure"), Shards: 1, SLO: 0.1, WindowS: 2})
		}},
		{"corrburst-shards3-faults", func(t *testing.T) map[string][]byte {
			return goldenRun(t, Config{
				Trace: goldenTrace(t, "corrburst"), Shards: 3, SLO: 0.1, WindowS: 2,
				// Seed 8 exhausts the one retry on 12 requests, so the
				// failure path is in the captures too.
				Fault:      fault.Plan{Seed: 8, ErrorRate: 0.05},
				Resilience: gateway.Resilience{MaxRetries: 1},
			})
		}},
		{"flashcrowd-b8-scale3", func(t *testing.T) map[string][]byte {
			return goldenRun(t, Config{
				Trace:   goldenTrace(t, "flashcrowd"),
				Initial: lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 0.05},
				Shards:  1, SLO: 0.1, TimeScale: 3, WindowS: 1,
			})
		}},
		{"fleet-corrburst-optimized", goldenFleet},
	}
	update := os.Getenv("UPDATE_REPLAY_GOLDEN") != ""
	dir := filepath.Join("testdata", "golden")
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for ext, got := range tc.run(t) {
				path := filepath.Join(dir, tc.name+"."+ext)
				if update {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with UPDATE_REPLAY_GOLDEN=1): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s diverged from the golden bytes:\n got: %s\nwant: %s", path, got, want)
				}
			}
		})
	}
}
