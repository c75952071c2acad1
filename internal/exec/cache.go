package exec

import (
	"container/list"

	"cumulon/internal/dfs"
)

// nodeCache is a per-node LRU tile cache: once a task on a node has read
// a tile, later tasks on the same node read it from memory instead of the
// DFS (Cumulon's memory-caching configuration setting). Payloads live in
// the compute layer; the engine only tracks which tiles — and in which
// format — a node holds, so cache hits are purely an accounting matter.
// Trace replay is sequential in virtual time, so no locking is needed, and
// the LRU order — hence timing — is deterministic.
type nodeCache struct {
	capacity int64
	used     int64
	entries  map[dfs.TileAddr]*list.Element
	lru      list.List // of *cacheEntry, most recent at the back
}

type cacheEntry struct {
	tile dfs.TileAddr
	size int64
	// hasDense / hasSparse record which decoded format(s) the node holds.
	// A materialized read only hits on a matching format (a re-read in the
	// other format goes back to the DFS, as the pre-compute-layer engine
	// did); virtual reads hit on any entry.
	hasDense, hasSparse bool
}

func newNodeCache(capacity int64) *nodeCache {
	return &nodeCache{capacity: capacity, entries: map[dfs.TileAddr]*list.Element{}}
}

func (c *nodeCache) get(tile dfs.TileAddr) (*cacheEntry, bool) {
	el, ok := c.entries[tile]
	if !ok {
		return nil, false
	}
	c.lru.MoveToBack(el)
	return el.Value.(*cacheEntry), true
}

func (c *nodeCache) put(tile dfs.TileAddr, size int64, hasDense, hasSparse bool) {
	if size > c.capacity {
		return
	}
	if old, ok := c.entries[tile]; ok {
		c.drop(old)
	}
	for c.used+size > c.capacity && c.lru.Len() > 0 {
		c.drop(c.lru.Front())
	}
	c.entries[tile] = c.lru.PushBack(&cacheEntry{tile, size, hasDense, hasSparse})
	c.used += size
}

func (c *nodeCache) drop(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	c.used -= e.size
	if c.entries[e.tile] == el {
		delete(c.entries, e.tile)
	}
}

// forgetFrom makes the entries of matrix numbers from first up unreachable:
// a dropped job's k-split partials, whose numbers the next k-split job's
// partials take. They keep their bytes and their place in the LRU until
// evicted, as a dropped matrix's entries always did, but serve no read.
func (c *nodeCache) forgetFrom(first int32) {
	for tile := range c.entries {
		if tile.Matrix >= first {
			delete(c.entries, tile)
		}
	}
}

// resetCaches builds fresh per-node caches for a run.
func (e *Engine) resetCaches() {
	if e.cfg.CacheFraction <= 0 {
		e.caches = nil
		return
	}
	capacity := int64(e.cfg.Cluster.Type.MemoryGB * 1e9 * e.cfg.CacheFraction)
	e.caches = make([]*nodeCache, e.cfg.Cluster.Nodes)
	for i := range e.caches {
		e.caches[i] = newNodeCache(capacity)
	}
}

// cacheFor returns the node's cache, or nil when caching is disabled.
func (e *Engine) cacheFor(node int) *nodeCache {
	if e.caches == nil || node < 0 || node >= len(e.caches) {
		return nil
	}
	return e.caches[node]
}
