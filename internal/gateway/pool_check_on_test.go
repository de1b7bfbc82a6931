//go:build poolcheck

package gateway

import "testing"

// TestBatchDoubleRecyclePanics recycles one batch backing array twice: the
// second recycle must panic rather than let two later batches share it.
func TestBatchDoubleRecyclePanics(t *testing.T) {
	g, err := New(fastBackend(), nil, immediateConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	s := g.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	batch := s.grabSliceLocked()
	s.recycleBatchLocked(batch)
	defer func() {
		if recover() == nil {
			t.Fatal("recycling a batch array already on the free-list did not panic")
		}
	}()
	s.recycleBatchLocked(batch)
}
