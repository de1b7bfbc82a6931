package fleet

import (
	"bytes"
	"testing"
)

// FuzzPlanValidate throws arbitrary bytes at the plan codec. Two properties
// hold for every input: ParsePlan/DecodePlan never panic (malformed plans —
// duplicate class names, non-positive SLOs, empty grids, merge-group cycles,
// unknown fields, trailing garbage — fail with an error), and any input
// DecodePlan accepts re-encodes bit-identically through EncodePlan, i.e. the
// canonical decoder's accepted language is exactly the canonical encoding.
// Wired into `make fuzz`.
func FuzzPlanValidate(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"classes":[]}`))
	// Valid canonical plans (compact json.Marshal output).
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":0.1}]}`))
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":0.1},{"name":"b","slo_s":0.5,"merge_with":"a"}],"merge":true}`))
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":0.1,"initial":{"memory_mb":2048,"batch_size":4,"timeout_s":0.1},"shards":2}],"grid":{"memories_mb":[1024,2048],"batches":[1,4],"timeouts_s":[0.05,0.1]}}`))
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":0.2,"resilience":{"max_retries":2,"retry_base_ms":1,"retry_max_ms":4,"jitter_seed":1}},{"name":"b","slo_s":0.4,"pricing":{"per_request_usd":2e-7,"per_gb_second_usd":1.6e-5}}]}`))
	// The malformed shapes Validate must reject without panicking.
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":0.1},{"name":"a","slo_s":0.2}]}`))                                   // duplicate name
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":0}]}`))                                                              // non-positive SLO
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":-1}]}`))                                                             // negative SLO
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":0.1}],"grid":{"memories_mb":[]}}`))                                  // empty grid dim
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":0.1,"merge_with":"b"},{"name":"b","slo_s":0.2,"merge_with":"a"}]}`)) // merge cycle
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":0.1,"merge_with":"a"}]}`))                                           // self-merge
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":0.1,"profile":"nope"}]}`))                                           // unknown profile
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":0.1}],"bogus":1}`))                                                  // unknown field
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":0.1}]} trailing`))                                                   // trailing data
	f.Add([]byte(`{"classes":[{"name":"a","slo_s":1e999}]}`))                                                          // non-finite SLO
	f.Fuzz(func(t *testing.T, data []byte) {
		// The lenient parser must never panic, whatever the bytes.
		if _, err := ParsePlan(data); err != nil {
			_ = err
		}
		// The canonical decoder accepts exactly its own encoding: anything it
		// admits must re-encode to the identical bytes.
		p, err := DecodePlan(data)
		if err != nil {
			return
		}
		again, err := EncodePlan(p)
		if err != nil {
			t.Fatalf("accepted plan failed to re-encode: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("accepted plan does not round-trip:\n in: %s\nout: %s", data, again)
		}
	})
}
