package server

import (
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
	_, p1, key1, _, err := c.Compile(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, p2, key2, _, err := c.Compile(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if key1 != key2 {
		t.Fatalf("same input, different keys %s vs %s", key1, key2)
	}
	if p1 != p2 {
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
			_, p, _, _, err := c.Compile(src, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
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
	_, _, key, _, err := c.Compile(src, cfg)
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
	if _, _, _, _, err := c.Compile("this is not a program", testCfg()); err == nil {
		t.Fatal("want parse error")
	}
	// The error is cached too: a retry is a hit that returns it again.
	if _, _, _, _, err := c.Compile("this is not a program", testCfg()); err == nil {
		t.Fatal("want cached parse error")
	}
}
