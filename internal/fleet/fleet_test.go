package fleet_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deepbat/internal/fleet"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
)

func twoClassPlan() fleet.Plan {
	one := &fleet.ConfigSpec{MemoryMB: 2048, BatchSize: 1}
	return fleet.Plan{Classes: []fleet.ClassSpec{
		{Name: "fast", SLO: 0.1, Initial: one, Shards: 1},
		{Name: "slow", SLO: 0.5, Initial: one, Shards: 1},
	}}
}

func TestFleetAccessorsAndRouting(t *testing.T) {
	clock := &obs.ManualClock{}
	p := twoClassPlan()
	f, err := fleet.New(p, fleet.Options{Clock: clock, VirtualTimers: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	if f.Classes() != 2 || f.Groups() != 2 {
		t.Fatalf("classes=%d groups=%d, want 2/2", f.Classes(), f.Groups())
	}
	if f.ClassIndex("fast") != 0 || f.ClassIndex("slow") != 1 || f.ClassIndex("nope") != -1 {
		t.Fatalf("ClassIndex routing broken: fast=%d slow=%d nope=%d",
			f.ClassIndex("fast"), f.ClassIndex("slow"), f.ClassIndex("nope"))
	}
	if f.GroupOf(0) == f.GroupOf(1) {
		t.Fatal("distinct classes share a group without merge_with")
	}
	if got := len(f.Plan().Classes); got != 2 {
		t.Fatalf("Plan() classes = %d", got)
	}
	if got := len(f.Assignment().Groups); got != 2 {
		t.Fatalf("Assignment() groups = %d", got)
	}
	// Each routing path serves.
	clock.Advance(0.01)
	if resp := f.Submit(0).Wait(); resp.Error != "" {
		t.Fatalf("Submit: %v", resp.Error)
	}
	if resp := f.Do(1); resp.Error != "" {
		t.Fatalf("Do: %v", resp.Error)
	}
	st := f.Stats()
	if st.Served != 2 || len(st.Groups) != 2 {
		t.Fatalf("Stats = %+v, want 2 served over 2 groups", st)
	}
}

func TestFleetApply(t *testing.T) {
	p := twoClassPlan()
	f, err := fleet.New(p, fleet.Options{Clock: &obs.ManualClock{}, VirtualTimers: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	next := *f.Assignment()
	next.Groups = append([]fleet.Group(nil), next.Groups...)
	next.Groups[0].Config = lambda.Config{MemoryMB: 3008, BatchSize: 4, TimeoutS: 0.05}
	if err := f.Apply(&next); err != nil {
		t.Fatal(err)
	}
	if got := f.GroupGateway(0).Config(); got != next.Groups[0].Config {
		t.Fatalf("group 0 config = %v, want %v", got, next.Groups[0].Config)
	}
	// A changed grouping must be rejected.
	regrouped := *f.Assignment()
	regrouped.Groups = []fleet.Group{{
		Classes: []int{0, 1}, SLO: 0.1, Profile: "nlp-base",
		Config: lambda.Config{MemoryMB: 2048, BatchSize: 1},
	}}
	regrouped.ByClass = []int{0, 0}
	if err := f.Apply(&regrouped); err == nil || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("Apply with regrouping = %v, want rebuild error", err)
	}
}

func TestFleetTunerDecideNow(t *testing.T) {
	clock := &obs.ManualClock{}
	p := fleet.Plan{
		Classes: []fleet.ClassSpec{{
			Name: "only", SLO: 0.5, Shards: 1,
			Initial: &fleet.ConfigSpec{MemoryMB: 512, BatchSize: 1},
		}},
		Grid: &fleet.GridSpec{
			Memories:  []float64{1024, 2048},
			Batches:   []int{1, 4},
			TimeoutsS: []float64{0.05},
		},
	}
	f, err := fleet.New(p, fleet.Options{Clock: clock, VirtualTimers: true, Tune: true, WindowLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	// Feed the tuner a steady window, then force a decision: the grid search
	// must move the group off the deliberately bad initial config.
	for i := 0; i < 40; i++ {
		clock.Advance(0.02)
		if resp := f.Do(0); resp.Error != "" {
			t.Fatalf("serve: %v", resp.Error)
		}
	}
	f.DecideNow()
	got := f.GroupGateway(0).Config()
	if got.MemoryMB < 1024 {
		t.Fatalf("tuner left config at %v, want a grid member", got)
	}
}

func TestFleetRejectsBadAssignment(t *testing.T) {
	p := twoClassPlan()
	bad := &fleet.Assignment{
		Groups: []fleet.Group{{
			Classes: []int{0}, SLO: 0.1, Profile: "nlp-base",
			Config: lambda.Config{MemoryMB: 2048, BatchSize: 1},
		}},
		ByClass: []int{0},
	}
	if _, err := fleet.New(p, fleet.Options{Assignment: bad}); err == nil {
		t.Fatal("want error: assignment covers one of two classes")
	}
	dup := &fleet.Assignment{
		Groups: []fleet.Group{
			{Classes: []int{0, 0}, SLO: 0.1, Profile: "nlp-base", Config: lambda.Config{MemoryMB: 2048, BatchSize: 1}},
			{Classes: []int{1}, SLO: 0.5, Profile: "nlp-base", Config: lambda.Config{MemoryMB: 2048, BatchSize: 1}},
		},
		ByClass: []int{0, 1},
	}
	if _, err := fleet.New(p, fleet.Options{Assignment: dup}); err == nil {
		t.Fatal("want error: class assigned twice")
	}
	wrongProfile := &fleet.Assignment{
		Groups: []fleet.Group{
			{Classes: []int{0}, SLO: 0.1, Profile: "nlp-large", Config: lambda.Config{MemoryMB: 2048, BatchSize: 1}},
			{Classes: []int{1}, SLO: 0.5, Profile: "nlp-base", Config: lambda.Config{MemoryMB: 2048, BatchSize: 1}},
		},
		ByClass: []int{0, 1},
	}
	if _, err := fleet.New(p, fleet.Options{Assignment: wrongProfile}); err == nil {
		t.Fatal("want error: group profile disagrees with member")
	}
}

func TestFleetVirtualFlush(t *testing.T) {
	clock := &obs.ManualClock{}
	p := fleet.Plan{Classes: []fleet.ClassSpec{{
		Name: "only", SLO: 0.5, Shards: 1,
		Initial: &fleet.ConfigSpec{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.1},
	}}}
	f, err := fleet.New(p, fleet.Options{Clock: clock, VirtualTimers: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	h := f.Submit(0)
	d, ok := f.NextFlushDeadline()
	if !ok {
		t.Fatal("no flush deadline for an open partial batch")
	}
	clock.Set(d)
	if n := f.FlushDue(); n != 1 {
		t.Fatalf("FlushDue = %d, want 1", n)
	}
	if resp := h.Wait(); resp.Error != "" || resp.BatchSize != 1 {
		t.Fatalf("flushed response = %+v", resp)
	}
	if _, ok := f.NextFlushDeadline(); ok {
		t.Fatal("deadline still pending after flush")
	}
}

func TestFleetHandler(t *testing.T) {
	clock := &obs.ManualClock{}
	f, err := fleet.New(twoClassPlan(), fleet.Options{Clock: clock, VirtualTimers: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	post := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := post("/infer?class=fast"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/infer?class=fast = %d", resp.StatusCode)
	} else {
		var r gateway.Response
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil || r.Error != "" {
			t.Fatalf("infer body: %+v err=%v", r, err)
		}
		resp.Body.Close()
	}
	if resp := post("/infer?class=nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/infer unknown class = %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := post("/infer"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/infer without class on multi-class fleet = %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := get("/infer?class=fast"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /infer = %d, want 405", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	if resp := get("/stats"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats = %d", resp.StatusCode)
	} else {
		var st fleet.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || len(st.Groups) != 2 || st.Served != 1 {
			t.Fatalf("stats = %+v err=%v", st, err)
		}
		resp.Body.Close()
	}
	if resp := get("/config"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/config = %d", resp.StatusCode)
	} else {
		var cfgs []lambda.Config
		if err := json.NewDecoder(resp.Body).Decode(&cfgs); err != nil || len(cfgs) != 2 {
			t.Fatalf("config = %+v err=%v", cfgs, err)
		}
		resp.Body.Close()
	}
	if resp := get("/metrics?group=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics?group=1 = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := get("/metrics.json"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics.json = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := get("/metrics?group=7"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/metrics bad group = %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := get("/metrics.json?group=x"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/metrics.json bad group = %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestFleetSingleClassHandlerDefaultsClass pins the 1-class ergonomic: no
// class parameter needed, exactly like the single gateway's /infer.
// stallingBackend fails every invocation after holding it for two clock
// seconds: without retries that is a backend failure, and with one retry and
// a 1 s request deadline the request expires between the attempts.
type stallingBackend struct{ clock *obs.ManualClock }

func (b stallingBackend) Execute(lambda.Config, int) (time.Duration, float64, error) {
	b.clock.Advance(2)
	return 0, 0, gateway.ErrBackendFailed
}

// TestInferErrorStatusesBothDoors pins the one /infer status mapping through
// the gateway door and the fleet door alike: 502 for a failed backend, 504
// for an expired request, each with the typed error in the JSON body.
func TestInferErrorStatusesBothDoors(t *testing.T) {
	one := &fleet.ConfigSpec{MemoryMB: 2048, BatchSize: 1}
	expiring := &fleet.ResilienceSpec{MaxRetries: 1, RequestTimeoutS: 1}
	clock := &obs.ManualClock{}
	f, err := fleet.New(fleet.Plan{Classes: []fleet.ClassSpec{
		{Name: "failing", SLO: 0.1, Initial: one, Shards: 1},
		{Name: "expiring", SLO: 0.1, Initial: one, Shards: 1, Resilience: expiring},
	}}, fleet.Options{
		Clock:         clock,
		VirtualTimers: true,
		BackendFor:    func(int, fleet.Group) gateway.Backend { return stallingBackend{clock} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	gw := func(res gateway.Resilience) http.Handler {
		g, err := gateway.New(stallingBackend{clock}, nil, gateway.Config{
			Initial: one.Config(), Clock: clock, VirtualTimers: true, Resilience: res, Shards: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Stop)
		return g.Handler()
	}
	for _, tc := range []struct {
		name, path string
		door       http.Handler
		status     int
		wantErr    error
	}{
		{"fleet failing", "/infer?class=failing", f.Handler(), http.StatusBadGateway, gateway.ErrBackendFailed},
		{"fleet expiring", "/infer?class=expiring", f.Handler(), http.StatusGatewayTimeout, gateway.ErrDeadlineExceeded},
		{"gateway failing", "/infer", gw(gateway.Resilience{}), http.StatusBadGateway, gateway.ErrBackendFailed},
		{"gateway expiring", "/infer", gw(expiring.Resilience()), http.StatusGatewayTimeout, gateway.ErrDeadlineExceeded},
	} {
		rec := httptest.NewRecorder()
		tc.door.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, nil))
		var out gateway.Response
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rec.Code != tc.status || out.Error != tc.wantErr.Error() {
			t.Errorf("%s: status %d body %+v, want %d with %q", tc.name, rec.Code, out, tc.status, tc.wantErr)
		}
	}
}

func TestFleetSingleClassHandlerDefaultsClass(t *testing.T) {
	// The default class config batches (B = 4, T = 0.1 s): on the wall
	// clock the flusher dispatches the lone request at its timeout.
	f, err := fleet.New(fleet.Plan{Classes: []fleet.ClassSpec{{Name: "only", SLO: 0.5, Shards: 1}}},
		fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/infer", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("1-class /infer without class = %d, want 200", resp.StatusCode)
	}
}

func TestFleetTuneEveryPeriodic(t *testing.T) {
	// TuneEvery wires the gateway's periodic decide loop; just verify the
	// fleet builds and serves with it enabled on the wall clock.
	p := fleet.Plan{Classes: []fleet.ClassSpec{{Name: "only", SLO: 0.5, Shards: 1}}}
	f, err := fleet.New(p, fleet.Options{TuneEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	if resp := f.Do(0); resp.Error != "" {
		t.Fatalf("serve under TuneEvery: %v", resp.Error)
	}
}
