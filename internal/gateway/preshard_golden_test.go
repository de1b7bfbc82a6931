// Pre-shard bit-identity goldens: the byte-exact obs snapshot and event
// stream the single-queue gateway produced for a fixed set of chaos-harness
// scenarios, captured in testdata/preshard/ BEFORE the intake was sharded.
// The sharded gateway at P=1 must reproduce these bytes exactly — that is
// the contract that lets every pre-shard golden test keep passing.
//
// Regenerate (only when a PR deliberately changes gateway observability):
//
//	UPDATE_PRESHARD_GOLDEN=1 go test -run TestPreShardGoldenBytes ./internal/gateway/
package gateway_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"deepbat/internal/fault/faulttest"
)

// TestPreShardGoldenBytes replays every golden scenario and byte-compares
// the obs snapshot and event stream against the pre-shard captures. With
// UPDATE_PRESHARD_GOLDEN=1 it rewrites the captures instead.
func TestPreShardGoldenBytes(t *testing.T) {
	update := os.Getenv("UPDATE_PRESHARD_GOLDEN") != ""
	dir := filepath.Join("testdata", "preshard")
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range faulttest.GoldenScenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			r := faulttest.Run(t, s)
			snapPath := filepath.Join(dir, s.Name+".snapshot.json")
			evPath := filepath.Join(dir, s.Name+".events.json")
			if update {
				if err := os.WriteFile(snapPath, r.Snapshot, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(evPath, r.Events, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantSnap, err := os.ReadFile(snapPath)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_PRESHARD_GOLDEN=1): %v", err)
			}
			wantEv, err := os.ReadFile(evPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r.Snapshot, wantSnap) {
				t.Errorf("snapshot diverged from pre-shard bytes:\n got: %s\nwant: %s", r.Snapshot, wantSnap)
			}
			if !bytes.Equal(r.Events, wantEv) {
				t.Errorf("events diverged from pre-shard bytes:\n got: %s\nwant: %s", r.Events, wantEv)
			}
		})
	}
}
