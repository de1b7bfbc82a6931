package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval around a call into a layer. Start and End are
// nanoseconds since the tracer was created; Parent is the index of the span
// that caused this one (-1 for a root); spans of one operation (one pass of a
// workload, one probe) share Op.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time: workloads run strictly one after another and every
// traced call is made from the goroutine that drives the workload. A nil
// tracer, and one switched off, record nothing — the untraced path.
type tracer struct {
	t0    time.Time
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on }

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(name, layer string, parent, op int) int {
	if !t.active() {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByLayer sums self time per layer label, in nanoseconds.
func selfByLayer(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer] += d
	}
	return out
}

// writeJSONL writes the spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
