package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"cumulon/internal/lang"
	"cumulon/internal/obs"
	"cumulon/internal/opt"
	"cumulon/internal/plan"
)

// PlanCache caches the compile and optimize work of the job service,
// keyed by program hash × plan configuration. Identical resubmissions
// — the common shape of statistical workloads, where many clients run
// the same parameterized analysis — skip parsing, the CSE/lowering
// passes, and (for optimized jobs) the whole deployment search.
//
// Cached plans are immutable templates: Compile returns the shared
// *plan.Plan, and executors must Clone it before applying splits (see
// plan.Clone). Cached deployments are returned as value copies.
//
// The cache is safe for concurrent use and single-flight per key: when
// N jobs miss on the same key at once, one compiles and the rest wait
// for its result.
//
// The cache is bounded: when the combined plan+deployment entry count
// exceeds maxEntries, the least-recently-used entry is evicted (an LRU
// over a logical access clock — no wall time, so behavior is
// deterministic for a fixed request sequence). Evicted entries that are
// still being awaited by in-flight jobs stay valid for those holders;
// they just stop being findable for reuse.
type PlanCache struct {
	mu         sync.Mutex
	maxEntries int
	tick       int64 // logical access clock for LRU ordering
	// entries holds plans under their Key and deployments under their
	// depKey, which extends a plan key and so never equals one.
	entries map[string]*cacheEntry

	hits, misses       int64 // compile cache
	depHits, depMisses int64 // deployment (optimizer) cache
	evictions          int64 // entries dropped by the LRU bound
}

// cacheEntry is one compiled plan (prog, plan) or one optimizer decision
// (dep, met), filled once by the first caller to miss on its key.
type cacheEntry struct {
	once sync.Once
	used int64 // last access tick (guarded by PlanCache.mu)
	prog *lang.Program
	plan *plan.Plan
	dep  opt.Deployment
	met  bool
	err  error
}

// NewPlanCache returns an empty cache holding at most maxEntries
// plan+deployment entries (<= 0 means the default of 256).
func NewPlanCache(maxEntries int) *PlanCache {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	return &PlanCache{maxEntries: maxEntries, entries: map[string]*cacheEntry{}}
}

// lookup returns the entry under key, creating it on a miss, counts the
// access in *hits or *misses, and evicts least-recently-used entries
// until the bound holds.
func (c *PlanCache) lookup(key string, hits, misses *int64) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	e, hit := c.entries[key]
	if hit {
		*hits++
	} else {
		*misses++
		e = &cacheEntry{}
		c.entries[key] = e
	}
	e.used = c.tick
	for len(c.entries) > c.maxEntries {
		oldest := key
		for k, o := range c.entries {
			if o.used < c.entries[oldest].used {
				oldest = k
			}
		}
		delete(c.entries, oldest)
		c.evictions++
	}
	return e, hit
}

// Key fingerprints a program source and plan configuration. The source
// is hashed as written (whitespace and comments included — a textually
// different program is a different key even when semantically equal);
// the configuration folds in every field that changes the compiled
// plan, with densities in sorted key order for determinism.
func Key(source string, cfg plan.Config) string {
	h := sha256.New()
	h.Write([]byte(source))
	h.Write([]byte{0})
	fmt.Fprintf(h, "tile=%d,reorder=%t,fusion=%t,cse=%t",
		cfg.TileSize, !cfg.DisableReorder, !cfg.DisableFusion, !cfg.DisableCSE)
	for _, n := range obs.SortedKeys(cfg.Densities) {
		fmt.Fprintf(h, ",d:%s=%s", n, strconv.FormatFloat(cfg.Densities[n], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// depKey extends a plan key with the optimizer constraint, so the same
// program optimized under a different deadline searches again.
func depKey(planKey string, req opt.Request) string {
	return planKey + "|" + strings.Join([]string{
		strconv.FormatFloat(req.DeadlineSec, 'g', -1, 64),
		strconv.FormatFloat(req.BudgetDollars, 'g', -1, 64),
		strconv.FormatFloat(req.Confidence, 'g', -1, 64),
		strconv.Itoa(req.MaxNodes),
	}, "|")
}

// Compile returns the parsed program and compiled plan template for the
// source under cfg, computing and caching them on first use. The
// returned plan is shared and must be treated as read-only (Clone
// before applying splits). The third return is the cache key, reusable
// with Deployment; the fourth reports whether this call found the entry
// already present (the caller's own hit, not a counter another job may
// bump).
func (c *PlanCache) Compile(source string, cfg plan.Config) (*lang.Program, *plan.Plan, string, bool, error) {
	key := Key(source, cfg)
	e, hit := c.lookup(key, &c.hits, &c.misses)
	e.once.Do(func() {
		prog, err := lang.Parse(source)
		if err != nil {
			e.err = err
			return
		}
		pl, err := plan.Compile(prog, cfg)
		if err != nil {
			e.err = err
			return
		}
		e.prog, e.plan = prog, pl
	})
	if e.err != nil {
		return nil, nil, key, hit, e.err
	}
	return e.prog, e.plan, key, hit, nil
}

// Deployment returns the optimizer's winner for the request, running
// the search on first use and serving the cached decision afterwards.
// planKey must come from Compile with the request's program and config.
// search runs the search and returns its winner; it is only invoked on
// a miss (single-flight). The third result reports whether this call
// found the entry already present, as Compile's does.
func (c *PlanCache) Deployment(planKey string, req opt.Request,
	search func() (*opt.Deployment, bool, error)) (*opt.Deployment, bool, bool, error) {
	e, hit := c.lookup(depKey(planKey, req), &c.depHits, &c.depMisses)
	e.once.Do(func() {
		d, met, err := search()
		if err != nil {
			e.err = err
			return
		}
		e.dep, e.met = *d, met
	})
	if e.err != nil {
		return nil, false, hit, e.err
	}
	d := e.dep // value copy: callers may not mutate the cached winner
	return &d, e.met, hit, nil
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
	DepHits    int64 `json:"deployment_hits"`
	DepMisses  int64 `json:"deployment_misses"`
	Entries    int   `json:"entries"`
	Evictions  int64 `json:"evictions"`
}

// Stats snapshots the hit/miss counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		PlanHits: c.hits, PlanMisses: c.misses,
		DepHits: c.depHits, DepMisses: c.depMisses,
		Entries:   len(c.entries),
		Evictions: c.evictions,
	}
}
