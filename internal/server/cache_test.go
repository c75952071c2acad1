package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cumulon/internal/opt"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

func gnmfSource() string {
	return workloads.GNMF(24, 18, 3, 1, 0.4).Prog.String()
}

func testCfg() plan.Config {
	return plan.Config{TileSize: 4, Densities: map[string]float64{"V": 0.4}}
}

// TestPlanCacheHitMiss: first compile misses, resubmission hits and
// returns the identical template.
func TestPlanCacheHitMiss(t *testing.T) {
	c := NewPlanCache(0)
	src, cfg := gnmfSource(), testCfg()
	t1, key1, _, err := c.Compile(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, key2, _, err := c.Compile(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if key1 != key2 {
		t.Fatalf("same input, different keys %s vs %s", key1, key2)
	}
	if t1.Plan != t2.Plan || t1.Memo != t2.Memo {
		t.Fatal("resubmission did not return the shared template")
	}
	st := c.Stats()
	if st.PlanHits != 1 || st.PlanMisses != 1 {
		t.Fatalf("stats %+v, want 1 hit 1 miss", st)
	}
}

// TestPlanCacheKeySensitivity: the key must move when the program or
// any plan-shaping knob moves, and must ignore density map order.
func TestPlanCacheKeySensitivity(t *testing.T) {
	src := gnmfSource()
	base := testCfg()
	k0 := Key(src, base)

	if k := Key(src+" ", base); k == k0 {
		t.Fatal("source change did not change the key")
	}
	cfg := testCfg()
	cfg.TileSize = 8
	if k := Key(src, cfg); k == k0 {
		t.Fatal("tile change did not change the key")
	}
	cfg = testCfg()
	cfg.DisableFusion = true
	if k := Key(src, cfg); k == k0 {
		t.Fatal("fusion toggle did not change the key")
	}
	cfg = testCfg()
	cfg.Densities["V"] = 0.1
	if k := Key(src, cfg); k == k0 {
		t.Fatal("density change did not change the key")
	}
	// Map iteration order must not leak into the key.
	a := plan.Config{TileSize: 4, Densities: map[string]float64{"A": 0.1, "B": 0.2, "C": 0.3}}
	b := plan.Config{TileSize: 4, Densities: map[string]float64{"C": 0.3, "A": 0.1, "B": 0.2}}
	for i := 0; i < 50; i++ {
		if Key(src, a) != Key(src, b) {
			t.Fatal("density map order changed the key")
		}
	}
}

// TestPlanCacheSingleFlight: N concurrent misses on one key compile
// exactly once.
func TestPlanCacheSingleFlight(t *testing.T) {
	c := NewPlanCache(0)
	src, cfg := gnmfSource(), testCfg()
	const n = 16
	var wg sync.WaitGroup
	plans := make([]*plan.Plan, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tm, _, _, err := c.Compile(src, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = tm.Plan
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent compiles returned different templates")
		}
	}
	if st := c.Stats(); st.PlanHits+st.PlanMisses != n {
		t.Fatalf("stats %+v, want %d lookups", st, n)
	}
	// Entries: one plan entry, zero deployment entries.
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries %d, want 1", st.Entries)
	}
}

// TestDeploymentCache: the search callback runs once per distinct
// constraint; a different deadline searches again.
func TestDeploymentCache(t *testing.T) {
	c := NewPlanCache(0)
	src, cfg := gnmfSource(), testCfg()
	_, key, _, err := c.Compile(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var searches atomic.Int32
	search := func() (*opt.Deployment, bool, error) {
		searches.Add(1)
		return &opt.Deployment{}, true, nil
	}
	req := opt.Request{DeadlineSec: 600, MaxNodes: 8}
	for i := 0; i < 3; i++ {
		if _, met, hit, err := c.Deployment(key, req, search); err != nil || !met || hit != (i > 0) {
			t.Fatalf("deployment %d: met=%t hit=%t err=%v", i, met, hit, err)
		}
	}
	if got := searches.Load(); got != 1 {
		t.Fatalf("search ran %d times, want 1", got)
	}
	req2 := req
	req2.DeadlineSec = 300
	if _, _, hit, err := c.Deployment(key, req2, search); err != nil || hit {
		t.Fatalf("new deadline: hit=%t err=%v", hit, err)
	}
	if got := searches.Load(); got != 2 {
		t.Fatalf("search ran %d times after new deadline, want 2", got)
	}
	st := c.Stats()
	if st.DepHits != 2 || st.DepMisses != 2 {
		t.Fatalf("deployment stats %+v, want 2 hits 2 misses", st)
	}
}

// TestPlanCacheCompileError: a bad program caches its error and does
// not poison the stats.
func TestPlanCacheCompileError(t *testing.T) {
	c := NewPlanCache(0)
	if _, _, _, err := c.Compile("this is not a program", testCfg()); err == nil {
		t.Fatal("want parse error")
	}
	// The error is cached too: a retry is a hit that returns it again.
	if _, _, _, err := c.Compile("this is not a program", testCfg()); err == nil {
		t.Fatal("want cached parse error")
	}
}

// traceBytes reads cumulond_plan_cache_trace_bytes from /metrics and from
// /metrics.json, which must agree.
func traceBytes(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	const name = "cumulond_plan_cache_trace_bytes"
	var fromText int64 = -1
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			if fromText, err = strconv.ParseInt(v, 10, 64); err != nil {
				t.Fatalf("/metrics: %s %q: %v", name, v, err)
			}
		}
	}
	var doc struct {
		Metrics []struct {
			Name    string
			Samples []struct{ Value float64 }
		}
	}
	if err := getJSON(http.DefaultClient, base+"/metrics.json", &doc); err != nil {
		t.Fatal(err)
	}
	var fromJSON int64 = -1
	for _, m := range doc.Metrics {
		if m.Name == name && len(m.Samples) == 1 {
			fromJSON = int64(m.Samples[0].Value)
		}
	}
	if fromText < 0 || fromText != fromJSON {
		t.Fatalf("%s reads %d in /metrics and %d in /metrics.json", name, fromText, fromJSON)
	}
	return fromText
}

// runJob submits req, waits for it to succeed and returns its status and
// its event stream, marshaled.
func runJob(t *testing.T, base string, req SubmitRequest) (JobStatus, []byte) {
	t.Helper()
	fin := await(t, base, submit(t, base, req).ID)
	if fin.State != StateSucceeded {
		t.Fatalf("job failed: %s", fin.Error)
	}
	evs, err := json.Marshal(fetchEvents(t, base, fin.ID).Events)
	if err != nil {
		t.Fatal(err)
	}
	return fin, evs
}

// TestEvictedTemplateDropsItsMemo: with room for one cached plan, a second
// program evicts the first, and its memo with it — the trace gauge then
// counts the second program's alone. Running the first again recompiles,
// recomputes every trace into a fresh memo of the same size, and gives the
// job's first result and event stream exactly.
func TestEvictedTemplateDropsItsMemo(t *testing.T) {
	a := SubmitRequest{Tenant: "t", Program: gnmfSource(), Tile: 4, Nodes: 4, Seed: 3}
	b := a
	b.Program = workloads.GNMF(30, 20, 3, 1, 0.4).Prog.String()
	_, alone := newTestServer(t, Config{Nodes: 8})
	runJob(t, alone.URL, b)
	bBytes := traceBytes(t, alone.URL)

	s, ts := newTestServer(t, Config{Nodes: 8, CacheSize: 1})
	first, firstEvents := runJob(t, ts.URL, a)
	aBytes := traceBytes(t, ts.URL)
	if aBytes == 0 || bBytes == 0 {
		t.Fatalf("a virtual job left %d and %d trace bytes in its cached plan's memo", aBytes, bBytes)
	}
	runJob(t, ts.URL, b)
	if got := traceBytes(t, ts.URL); got != bBytes || s.cache.Stats().Evictions != 1 {
		t.Fatalf("after evicting the first plan: %d trace bytes (%d evictions), want the second plan's %d",
			got, s.cache.Stats().Evictions, bBytes)
	}
	again, againEvents := runJob(t, ts.URL, a)
	if again.PlanCacheHit {
		t.Fatal("the evicted plan was found in the cache")
	}
	if got := traceBytes(t, ts.URL); got != aBytes {
		t.Fatalf("the recomputed memo holds %d bytes, the first %d", got, aBytes)
	}
	if !reflect.DeepEqual(again.Result, first.Result) || !bytes.Equal(againEvents, firstEvents) {
		t.Fatal("the re-run of an evicted plan differs from its first run")
	}
}

// TestMemoKeepsTheLatestSplits: a template run at 2 nodes and then at 4
// holds only the 4-node run's traces — exactly what a template run at 4
// nodes alone holds — and a 4-node job on it is served without recording.
func TestMemoKeepsTheLatestSplits(t *testing.T) {
	req := SubmitRequest{Tenant: "t", Program: gnmfSource(), Tile: 4, Nodes: 4, Seed: 3}
	_, alone := newTestServer(t, Config{Nodes: 8})
	runJob(t, alone.URL, req)
	want := traceBytes(t, alone.URL)

	_, ts := newTestServer(t, Config{Nodes: 8})
	small := req
	small.Nodes = 2
	runJob(t, ts.URL, small)
	if two := traceBytes(t, ts.URL); two == want {
		t.Fatalf("2 and 4 nodes split the template alike (%d trace bytes); the test shows nothing", two)
	}
	runJob(t, ts.URL, req)
	if got := traceBytes(t, ts.URL); got != want {
		t.Fatalf("after runs at 2 and 4 nodes the memo holds %d bytes, a 4-node run alone %d", got, want)
	}
	runJob(t, ts.URL, req)
	if got := traceBytes(t, ts.URL); got != want {
		t.Fatalf("a warm 4-node job grew the memo from %d to %d bytes", want, got)
	}
}
