// Package dfs implements a simulated distributed file system in the spirit
// of HDFS, the storage substrate Cumulon runs on. It reproduces the
// properties the Cumulon engine and optimizer depend on:
//
//   - files split into blocks, each block replicated on several datanodes;
//   - write-local-first placement, with remaining replicas spread across
//     the cluster;
//   - locality-aware reads: a reader on a node holding a replica reads
//     locally, otherwise remotely (the distinction drives both scheduling
//     and the I/O cost model);
//   - every read's bytes classified by distance from the reader (a
//     ReadSplit), which the engine keeps in its per-task records;
//   - datanode failure with re-replication, so that the engines' retry
//     paths can be exercised.
//
// Data is held in memory: the simulation is about placement and locality,
// not about durability of real disks.
package dfs

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"cumulon/internal/cloud"
)

// Common errors returned by the file system.
var (
	ErrNotFound    = errors.New("dfs: file not found")
	ErrExists      = errors.New("dfs: file already exists")
	ErrUnavailable = errors.New("dfs: all replicas unavailable")
	ErrDeadNode    = errors.New("dfs: node is dead")
	ErrVirtual     = errors.New("dfs: virtual file has no content")
)

// Config controls file system geometry.
type Config struct {
	Nodes       int   // number of datanodes
	Replication int   // replicas per block (default cloud.DefaultReplication)
	BlockSize   int64 // block size in bytes (HDFS-like, default 64 MiB)
	Seed        int64 // seed for placement randomness
	// RackSize groups nodes into racks of this many nodes (node n lives
	// in rack n/RackSize). Zero means a single rack. With racks
	// configured, replica placement follows the HDFS policy — first
	// replica on the writer, second on a different rack, third on the
	// second's rack — and reads distinguish node-local, rack-local and
	// cross-rack traffic.
	RackSize int
}

// DefaultConfig mirrors a small 2013-era Hadoop deployment.
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes, Replication: cloud.DefaultReplication, BlockSize: 64 << 20, Seed: 1}
}

// cell is one file, held by value in its directory in 24 bytes: its size,
// its payload (nil when virtual) and its first block's replicas. A file of
// several blocks, or whose one block has a replica list rep cannot hold —
// more than three, or a node id past 16 bits — spills: its blocks go to a
// list of their own, and p points to that list instead.
type cell struct {
	p    unsafe.Pointer // the payload's first byte, or the spilled *[]block
	size int64
	rep  [3]uint16
	nrep uint8
	kind uint8 // isReal or isVirtual, and spilled; 0 for a vacant cell
}

const (
	isReal uint8 = 1 << iota
	isVirtual
	spilled
)

func (c *cell) vacant() bool  { return c.kind == 0 }
func (c *cell) virtual() bool { return c.kind&isVirtual != 0 }

// spill returns a spilled file's blocks, nil for a file kept inline.
func (c *cell) spill() []block {
	if c.kind&spilled == 0 {
		return nil
	}
	return *(*[]block)(c.p)
}

func (c *cell) nblocks() int {
	if bs := c.spill(); bs != nil {
		return len(bs)
	}
	return 1
}

// replicas returns the size and replica list of c's block i, an inline
// block's list copied to buf.
func (c *cell) replicas(i int, buf *[3]int32) (int64, []int32) {
	if bs := c.spill(); bs != nil {
		return bs[i].size, bs[i].replicas
	}
	for j, r := range c.rep[:c.nrep] {
		buf[j] = int32(r)
	}
	return c.size, buf[:c.nrep]
}

// inline stores reps in c.rep, if it can hold them, and reports whether it
// did.
func (c *cell) inline(reps []int32) bool {
	if len(reps) > len(c.rep) || slices.ContainsFunc(reps, func(r int32) bool { return r > math.MaxUint16 }) {
		return false
	}
	for i, r := range reps {
		c.rep[i] = uint16(r)
	}
	c.nrep = uint8(len(reps))
	return true
}

// payload returns an inline file's bytes, nil for a virtual one.
func (c *cell) payload() []byte {
	if c.p == nil {
		return nil
	}
	return unsafe.Slice((*byte)(c.p), c.size)
}

// setBlocks stores bs as c's blocks: inline when there is one whose
// replicas rep can hold, and otherwise bs itself, which c then owns.
func (c *cell) setBlocks(bs []block) {
	c.kind &^= spilled
	if len(bs) == 1 && c.inline(bs[0].replicas) {
		c.p = unsafe.Pointer(unsafe.SliceData(bs[0].data))
		return
	}
	c.p, c.nrep, c.kind = unsafe.Pointer(&bs), 0, c.kind|spilled
}

// block is one block of a spilled file.
type block struct {
	data     []byte // nil for virtual blocks
	size     int64
	replicas []int32 // datanode ids holding this block
}

// FS is the simulated distributed file system. All methods are safe for
// concurrent use.
type FS struct {
	mu  sync.Mutex
	cfg Config
	rng *rand.Rand
	// dirs is the namespace: every file in the index of its directory (the
	// path through its last '/'; a matrix's tiles share one), and no
	// directory without a file but a declared matrix's (Batch.Declare),
	// which stays until DeleteMatrix. A point lookup allocates nothing, a
	// matrix drop at most its key; a prefix operation visits the directory
	// names and the files of the one directory the prefix may end inside.
	dirs map[string]*dir
	dead []bool // per node
	live []int  // live node ids, ascending; rebuilt by markDead only
	// used and cands are the scratch of fillReplicaTargets, so placing a
	// block allocates at most its replica list (nothing for an inline one).
	used  []bool
	cands []int
	// tab binds matrix numbers, which tile addresses carry, to matrices:
	// tab[n] is the name and declared directory of the matrix n is bound to
	// (Batch.Bind, Batch.Declare). Whatever replaces or drops a directory
	// here updates its entries: own and DeleteMatrix.
	tab []binding
	// batch is the tile-keyed face Batch hands out under the lock.
	batch Batch
}

// New creates a file system with the given configuration. Replication is
// clamped to the node count.
func New(cfg Config) *FS {
	return NewOn(cfg, rand.New(rand.NewSource(cfg.Seed)))
}

// NewOn is New drawing placement randomness from rng instead of a stream
// seeded with cfg.Seed, which it ignores.
func NewOn(cfg Config, rng *rand.Rand) *FS {
	if cfg.Nodes <= 0 {
		panic("dfs: need at least one node")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = cloud.DefaultReplication
	}
	if cfg.Replication > cfg.Nodes {
		cfg.Replication = cfg.Nodes
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 64 << 20
	}
	fs := &FS{
		cfg:   cfg,
		rng:   rng,
		dirs:  make(map[string]*dir),
		dead:  make([]bool, cfg.Nodes),
		live:  make([]int, cfg.Nodes),
		used:  make([]bool, cfg.Nodes),
		cands: make([]int, 0, cfg.Nodes),
	}
	for n := range fs.live {
		fs.live[n] = n
	}
	fs.batch.fs = fs
	return fs
}

// Fork returns a file system with fs's namespace, matrix bindings and node
// states that places every later write from rng; from then on the two are
// independent. They share the directories themselves,
// copy-on-write: a shared directory is never changed again, and the first
// write, delete or re-replication either side makes in it copies it first,
// and points that side's bindings at the copy — so a fork costs the
// directory map and the binding table, not the tiles. Given rng at the position fs's own
// stream has reached, the fork places later writes exactly as fs would. A
// nil rng makes a snapshot that is only forked, never written.
func (fs *FS) Fork(rng *rand.Rand) *FS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, d := range fs.dirs {
		if !d.shared { // a shared one is written by no one
			d.shared = true
		}
	}
	f := NewOn(fs.cfg, rng)
	f.dirs, f.live = maps.Clone(fs.dirs), append(f.live[:0], fs.live...)
	f.tab = slices.Clone(fs.tab)
	copy(f.dead, fs.dead)
	return f
}

// isDead reports whether node is a dead datanode; an id outside
// [0, Nodes) is an external client, which is never dead.
func (fs *FS) isDead(node int) bool {
	return node >= 0 && node < len(fs.dead) && fs.dead[node]
}

// dirOf returns the directory of path: the path through its last '/', or
// "" for a path without one.
func dirOf(path string) string {
	return path[:strings.LastIndexByte(path, '/')+1]
}

// at resolves path to its slot: an ordinary file's, whatever the path looks
// like, never a tile's. Caller holds the lock.
func (fs *FS) at(path string) slot { return slot{d: fs.dirs[dirOf(path)], path: path} }

// own makes the directory of slot s, which exists, this file system's own to
// change: one a fork shares is replaced by a copy. A slot resolved before an
// earlier change copied it finds the copy. Caller holds the lock.
func (fs *FS) own(s *slot) {
	if !s.d.shared {
		return
	}
	if d := fs.dirs[s.d.path]; d != s.d {
		s.d = d
		return
	}
	old := s.d
	s.d = old.copy()
	fs.dirs[s.d.path] = s.d
	fs.rebind(old, s.d)
}

// rebind points every binding of directory old at d instead: old's copy, or
// nil for a dropped directory. Caller holds the lock.
func (fs *FS) rebind(old, d *dir) {
	for i := range fs.tab {
		if fs.tab[i].d == old {
			fs.tab[i].d = d
		}
	}
}

// put stores c in slot s, making an ordinary file's directory when it has
// none. Caller holds the lock.
func (fs *FS) put(s slot, c cell) {
	if s.d == nil {
		s.d = &dir{path: dirOf(s.path)}
		fs.dirs[s.d.path] = s.d
	}
	fs.own(&s)
	s.set(c)
}

// drop removes the file in slot s, if any, and with its last file a
// directory that has no grid. Caller holds the lock.
func (fs *FS) drop(s slot) {
	if c := s.get(); c.vacant() {
		return
	}
	fs.own(&s)
	if s.set(cell{}); s.d.len() == 0 && s.d.cells == nil {
		delete(fs.dirs, s.d.path) // no binding holds a directory without a grid
	}
}

// markDead flags a live, in-range node dead and drops it from the live
// list. Caller holds the lock.
func (fs *FS) markDead(node int) {
	fs.dead[node] = true
	live := fs.live[:0]
	for _, n := range fs.live {
		if n != node {
			live = append(live, n)
		}
	}
	fs.live = live
}

// RackOf returns the rack id of a node (0 for single-rack clusters and
// external clients).
func (fs *FS) RackOf(node int) int {
	if fs.cfg.RackSize <= 0 || node < 0 {
		return 0
	}
	return node / fs.cfg.RackSize
}

// Replication returns the configured replication factor.
func (fs *FS) Replication() int { return fs.cfg.Replication }

// Write stores data under path, placing the first replica on writerNode
// (HDFS write-local-first) and the remaining replicas on random distinct
// live nodes. writerNode < 0 means an external client: all replicas are
// placed randomly.
//
// Files are write-once, so Write takes ownership of data instead of
// copying it: the blocks are sub-slices of it. The payload is immutable
// once handed over — the caller may keep reading it and may store the
// same slice under several paths, but must never modify it again.
func (fs *FS) Write(path string, data []byte, writerNode int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.write(fs.at(path), data, int64(len(data)), false, writerNode)
}

// WriteVirtual stores a metadata-only file of the given size: replica
// placement, locality, accounting and failure behaviour are identical to a
// real file, but no payload is kept. Paper-scale experiments use virtual
// matrices so that a 100k x 100k product can be *scheduled and timed*
// exactly without computing 10^15 flops for real; correctness of the same
// code paths is established separately on materialized data.
func (fs *FS) WriteVirtual(path string, size int64, writerNode int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.write(fs.at(path), nil, size, true, writerNode)
}

// write stores in slot s, which must be vacant — files are write-once — a
// file of size bytes: data's, or none for a virtual one. Caller holds the
// lock.
func (fs *FS) write(s slot, data []byte, size int64, virt bool, writerNode int) error {
	if c := s.get(); !c.vacant() {
		return fmt.Errorf("%w: %s", ErrExists, s.pathname())
	}
	if fs.isDead(writerNode) {
		return fmt.Errorf("%w: %d", ErrDeadNode, writerNode)
	}
	if size < 0 {
		return fmt.Errorf("dfs: negative size %d for %s", size, s.pathname())
	}
	c := cell{size: size, kind: isReal}
	if virt {
		c.kind = isVirtual
	}
	if size <= fs.cfg.BlockSize && fs.cfg.Replication <= len(c.rep) && fs.cfg.Nodes <= math.MaxUint16+1 {
		// One block, whose replicas c.rep holds.
		var buf [3]int32
		c.inline(fs.placeReplicas(buf[:0], writerNode))
		c.p = unsafe.Pointer(unsafe.SliceData(data))
		fs.put(s, c)
		return nil
	}
	var bs []block
	for off := int64(0); off == 0 || off < size; off += fs.cfg.BlockSize {
		end := min(off+fs.cfg.BlockSize, size)
		b := block{size: end - off, replicas: fs.placeReplicas(make([]int32, 0, fs.cfg.Replication), writerNode)}
		if !virt {
			b.data = data[off:end:end]
		}
		bs = append(bs, b)
	}
	c.setBlocks(bs)
	fs.put(s, c)
	return nil
}

// ReadSplit classifies the bytes of a read by distance from the reader:
// served from the reader's own node, from another node in the reader's
// rack, or across racks. The three classes are disjoint; in single-rack
// clusters every non-local byte is Remote.
type ReadSplit struct {
	Local     int64
	RackLocal int64
	Remote    int64
}

// Total returns the total bytes of the read.
func (r ReadSplit) Total() int64 { return r.Local + r.RackLocal + r.Remote }

// classify determines the read class of a block of size bytes for
// readerNode (-1 for an external client) from its replicas on live nodes and
// adds it to sp, or reports false, adding nothing, when it has none; caller
// holds the lock.
func (fs *FS) classify(size int64, replicas []int32, readerNode int, sp *ReadSplit) bool {
	live, rackLocal := false, false
	for _, r := range replicas {
		switch {
		case fs.dead[r]:
			continue
		case int(r) == readerNode:
			sp.Local += size
			return true
		}
		live = true
		rackLocal = rackLocal || fs.cfg.RackSize > 0 && readerNode >= 0 && fs.RackOf(int(r)) == fs.RackOf(readerNode)
	}
	switch {
	case !live:
		return false
	case rackLocal:
		sp.RackLocal += size
	default:
		sp.Remote += size
	}
	return true
}

// ReadAccount performs the placement and locality checks of a read without
// returning content, and reports how the bytes split by
// distance from readerNode. It works for both real and virtual files and
// is the read path the engines use for timing.
func (fs *FS) ReadAccount(path string, readerNode int) (ReadSplit, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s := fs.at(path)
	return fs.readAccount(&s, readerNode)
}

// find returns the file in slot s or ErrNotFound.
func (s *slot) find() (cell, error) {
	if c := s.get(); !c.vacant() {
		return c, nil
	}
	return cell{}, fmt.Errorf("%w: %s", ErrNotFound, s.pathname())
}

// readAccount classifies a read of every block of the file in
// slot s by readerNode. A reader id outside [0, Nodes) — negative, or one past the
// cluster from a stale topology — is an external client, as for writes: its
// bytes are remote. Caller holds the lock.
func (fs *FS) readAccount(s *slot, readerNode int) (ReadSplit, error) {
	var sp ReadSplit
	c, err := s.find()
	if err != nil {
		return sp, err
	}
	if readerNode >= fs.cfg.Nodes {
		readerNode = -1
	}
	if fs.isDead(readerNode) {
		return sp, fmt.Errorf("%w: %d", ErrDeadNode, readerNode)
	}
	var buf [3]int32
	for i := range c.nblocks() {
		if size, reps := c.replicas(i, &buf); !fs.classify(size, reps, readerNode, &sp) {
			return sp, fmt.Errorf("%w: %s", ErrUnavailable, s.pathname())
		}
	}
	return sp, nil
}

// placeReplicas picks replica nodes following the HDFS policy: the first
// replica on the writer when possible; with racks configured, the second
// replica on a different rack than the first and the third on the same
// rack as the second; remaining replicas (and all replicas in single-rack
// clusters) are placed uniformly at random among unused live nodes. A
// writerNode outside [0, Nodes) — including one past the cluster, e.g. an
// uploader addressed by a stale topology — is an external client: all
// replicas are placed randomly. The list is appended to replicas, which
// must be empty.
func (fs *FS) placeReplicas(replicas []int32, writerNode int) []int32 {
	if len(fs.live) == 0 {
		panic("dfs: no live nodes")
	}
	want := fs.cfg.Replication
	if want > len(fs.live) {
		want = len(fs.live)
	}
	if writerNode >= 0 && writerNode < fs.cfg.Nodes && !fs.dead[writerNode] {
		replicas = append(replicas, int32(writerNode))
	}
	return fs.fillReplicaTargets(replicas, want)
}

// fillReplicaTargets extends replicas with live nodes up to want entries,
// applying the staged HDFS rack policy relative to the existing replicas
// (second replica off the first's rack, third on the second's rack) and
// filling the rest uniformly at random. It is the shared target-selection
// policy of fresh writes and of post-failure re-replication, so recovered
// blocks spread exactly like newly written ones. The candidates — the live
// nodes not yet holding the block, ascending — are shuffled once per call,
// whatever want is: the draw sequence of the placement stream is part of
// every golden trace. Caller holds the lock.
func (fs *FS) fillReplicaTargets(replicas []int32, want int) []int32 {
	used := fs.used
	clear(used)
	for _, r := range replicas {
		used[r] = true
	}
	cands := fs.cands[:0]
	for _, n := range fs.live {
		if !used[n] {
			cands = append(cands, n)
		}
	}
	fs.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })

	// pick takes the first unused candidate that is on rack (on) or off it
	// (!on); rack < 0 accepts any.
	pick := func(rack int, on bool) bool {
		for _, n := range cands {
			if !used[n] && (rack < 0 || (fs.RackOf(n) == rack) == on) {
				replicas = append(replicas, int32(n))
				used[n] = true
				return true
			}
		}
		return false
	}
	if fs.cfg.RackSize > 0 && len(replicas) > 0 {
		// Second replica off the first's rack, third on the second's rack;
		// either falls back to any node.
		if len(replicas) < want && !pick(fs.RackOf(int(replicas[0])), false) {
			pick(-1, true)
		}
		if len(replicas) >= 2 && len(replicas) < want && !pick(fs.RackOf(int(replicas[1])), true) {
			pick(-1, true)
		}
	}
	for len(replicas) < want && pick(-1, true) {
	}
	return replicas
}

// contents returns the file's bytes: the stored block itself for a
// single-block file (a read-only view, capacity clipped to its length),
// a fresh concatenation for a multi-block one.
func (c *cell) contents() []byte {
	bs := c.spill()
	switch {
	case bs == nil:
		return c.payload()
	case len(bs) == 1:
		return bs[0].data
	}
	out := make([]byte, 0, c.size)
	for _, b := range bs {
		out = append(out, b.data...)
	}
	return out
}

// read returns the contents of slot s as seen by readerNode, recording read
// bytes per block by distance class, and how they split by distance from
// the reader. readerNode < 0 means an external client (all reads count as
// remote, attributed to the cluster total only). The returned bytes are a
// read-only view of the stored file (see Write): they stay valid and
// unchanged whatever happens to the file system afterwards, and the caller
// must not modify them. Caller holds the lock.
func (fs *FS) read(s slot, readerNode int) ([]byte, ReadSplit, error) {
	c, err := s.find()
	if err != nil {
		return nil, ReadSplit{}, err
	}
	if c.virtual() {
		return nil, ReadSplit{}, fmt.Errorf("%w: %s", ErrVirtual, s.pathname())
	}
	sp, err := fs.readAccount(&s, readerNode)
	if err != nil {
		return nil, sp, err
	}
	return c.contents(), sp, nil
}

// Peek returns the file contents without any locality classification or
// liveness check of the reader. Compute
// backends use it to fetch tile payloads for pure computation, while the
// engine separately replays the read for placement and its byte split;
// splitting the two is what lets tile math run on worker goroutines while
// the classification stays deterministic. Blocks whose every replica is dead
// are unavailable, exactly as for Batch.Read, and the returned bytes are the
// same read-only view Batch.Read returns.
func (fs *FS) Peek(path string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.peek(fs.at(path))
}

// peek is Peek of slot s. Caller holds the lock.
func (fs *FS) peek(s slot) ([]byte, error) {
	c, err := s.find()
	if err != nil {
		return nil, err
	}
	if c.virtual() {
		return nil, fmt.Errorf("%w: %s", ErrVirtual, s.pathname())
	}
	var buf [3]int32
	for i := range c.nblocks() {
		if _, reps := c.replicas(i, &buf); !slices.ContainsFunc(reps, func(r int32) bool { return !fs.dead[r] }) {
			return nil, fmt.Errorf("%w: %s", ErrUnavailable, s.pathname())
		}
	}
	return c.contents(), nil
}

// firstReplica returns the lowest-numbered live node holding a replica of
// some block of c, or -1 when c is vacant or has no live replica. Caller
// holds the lock.
func (fs *FS) firstReplica(c cell) int {
	first := -1
	var buf [3]int32
	if !c.vacant() {
		for i := range c.nblocks() {
			_, reps := c.replicas(i, &buf)
			for _, r := range reps {
				if !fs.dead[r] && (first < 0 || int(r) < first) {
					first = int(r)
				}
			}
		}
	}
	return first
}

// List returns all paths with the given prefix, sorted.
func (fs *FS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for _, s := range fs.sorted(prefix) {
		out = append(out, s.path)
	}
	return out
}

// sorted returns the slots of the files under prefix, paths rendered, in
// sort.Strings order of the paths, whatever directories they are in — the
// order every whole-namespace operation that draws from the placement
// stream or keeps a running tally must use (KillNode's re-replication does
// both). Caller holds the lock.
func (fs *FS) sorted(prefix string) []slot {
	var out []slot
	inside := dirOf(prefix)
	for dir, d := range fs.dirs {
		if strings.HasPrefix(dir, prefix) || dir == inside {
			out = append(out, d.under(prefix)...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// RecoveryReport summarizes the namenode-driven recovery triggered by one
// node death.
type RecoveryReport struct {
	BlocksLost      int   // blocks whose every replica was on dead nodes
	BlocksRecovered int   // blocks that received at least one new replica
	ReplicasAdded   int   // total new replicas created
	BytesMoved      int64 // bytes copied from surviving sources to receivers
}

// KillNode marks a datanode dead and re-replicates every block that lost a
// replica, using the remaining live copies as sources (namenode-driven
// recovery, as in HDFS). Targets are chosen by the same rack-aware policy
// as fresh writes, spread randomly rather than piling onto low-numbered
// nodes, and each copy is read from a surviving source replica drawn at
// random; the report counts the bytes copied. Blocks whose every replica was on dead nodes become
// unavailable. Files are processed in sorted path order so the recovery
// traffic is deterministic for a given placement history.
func (fs *FS) KillNode(node int) RecoveryReport {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var rep RecoveryReport
	if node < 0 || node >= fs.cfg.Nodes || fs.dead[node] {
		return rep
	}
	fs.markDead(node)
	want := min(fs.cfg.Replication, len(fs.live))
	var buf [3]int32
	for _, s := range fs.sorted("") {
		c := s.get()
		var bs []block // the file's blocks, once one of them changes
		for i := range c.nblocks() {
			size, reps := c.replicas(i, &buf)
			if !slices.Contains(reps, int32(node)) {
				continue
			}
			live := make([]int32, 0, max(len(reps), want))
			for _, r := range reps {
				if !fs.dead[r] {
					live = append(live, r)
				}
			}
			if len(live) == 0 {
				rep.BlocksLost++
				continue
			}
			grown := live
			if len(live) < want {
				grown = fs.fillReplicaTargets(live, want)
			}
			if len(grown) > len(live) {
				rep.BlocksRecovered++
			}
			for range grown[len(live):] {
				fs.rng.Intn(len(live)) // the source replica: later placements draw after it
				rep.ReplicasAdded++
				rep.BytesMoved += size
			}
			if bs == nil { // a copy: a spilled list may be a fork's too
				if bs = slices.Clone(c.spill()); bs == nil {
					bs = []block{{data: c.payload(), size: c.size}}
				}
			}
			bs[i].replicas = grown
		}
		if bs != nil {
			c.setBlocks(bs)
			fs.own(&s)
			s.set(c)
		}
	}
	return rep
}

// Reseed replaces the placement random stream with one derived from
// seed. Program-level checkpointing reseeds at every iteration boundary
// so that a run resumed from a checkpoint draws the same placement
// stream as the run that wrote it, independent of how many draws either
// consumed before the boundary.
func (fs *FS) Reseed(seed int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.rng = rand.New(rand.NewSource(seed))
}

// MarkDead marks a datanode dead without triggering re-replication. Checkpoint restore uses it to reinstate the failure state
// recorded in a manifest before rehydrating tiles (whose recorded
// placements already reflect any pre-checkpoint recovery).
func (fs *FS) MarkDead(node int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if node >= 0 && node < fs.cfg.Nodes && !fs.dead[node] {
		fs.markDead(node)
	}
}

// replicaLists returns fresh copies of the replica lists of c's blocks, in
// block order.
func (c *cell) replicaLists() [][]int {
	out := make([][]int, c.nblocks())
	var buf [3]int32
	for i := range out {
		_, reps := c.replicas(i, &buf)
		out[i] = make([]int, len(reps))
		for j, r := range reps {
			out[i][j] = int(r)
		}
	}
	return out
}

// writePlaced is Batch.WritePlaced of slot s. Caller holds the lock.
func (fs *FS) writePlaced(s slot, data []byte, size int64, replicas [][]int) error {
	if c := s.get(); !c.vacant() {
		return fmt.Errorf("%w: %s", ErrExists, s.pathname())
	}
	if data != nil {
		size = int64(len(data))
	}
	if size < 0 {
		return fmt.Errorf("dfs: negative size %d for %s", size, s.pathname())
	}
	nBlocks := int((size + fs.cfg.BlockSize - 1) / fs.cfg.BlockSize)
	if nBlocks == 0 {
		nBlocks = 1
	}
	if len(replicas) != nBlocks {
		return fmt.Errorf("dfs: %s wants %d block replica lists, got %d", s.pathname(), nBlocks, len(replicas))
	}
	bs := make([]block, nBlocks)
	for i := range bs {
		if len(replicas[i]) == 0 {
			return fmt.Errorf("dfs: %s block %d has no replicas", s.pathname(), i)
		}
		off := int64(i) * fs.cfg.BlockSize
		end := min(off+fs.cfg.BlockSize, size)
		bs[i] = block{size: end - off, replicas: make([]int32, len(replicas[i]))}
		for j, r := range replicas[i] {
			if r < 0 || r >= fs.cfg.Nodes {
				return fmt.Errorf("dfs: %s block %d replica on unknown node %d", s.pathname(), i, r)
			}
			bs[i].replicas[j] = int32(r)
		}
		if data != nil {
			bs[i].data = data[off:end:end]
		}
	}
	c := cell{size: size, kind: isReal}
	if data == nil {
		c.kind = isVirtual
	}
	c.setBlocks(bs)
	fs.put(s, c)
	return nil
}

// NodeAlive reports whether the datanode is live.
func (fs *FS) NodeAlive(node int) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return node >= 0 && node < fs.cfg.Nodes && !fs.dead[node]
}
