// Package compute is the tile-compute layer: the pure mathematics of task
// execution, factored out of Cumulon's slot scheduler (package exec) so
// that the float work can run on parallel worker goroutines without
// disturbing the engine's deterministic virtual time.
//
// The key design point is the split between computing and accounting. A
// Task's function reads input tiles through the run's Inputs, which fetch
// payloads with a non-accounting Source.PeekTile and share what they decode,
// performs the tile math, and records an ordered Trace of I/O operations
// (reads touched, outputs produced) plus the flops spent. It never touches
// the virtual clock, the slot scheduler, replica placement, node caches or
// metrics — those belong to the engine, which replays the trace
// sequentially in scheduling order. Because the trace replay is the only
// thing that mutates engine state, a Backend is free to compute the tasks
// of a scheduling phase in any order, on any number of goroutines, and the
// engine's virtual times, byte accounting and placements stay byte-for-byte
// identical to the sequential reference.
package compute

import (
	"sync"

	"cumulon/internal/dfs"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
)

// Source supplies input payloads to a run's Inputs. Implementations must be
// safe for concurrent use (dfs.FS is). PeekTile returns the tile's contents
// without any read accounting; the engine accounts the read later when it
// replays the task's trace.
type Source interface {
	PeekTile(a dfs.TileAddr) ([]byte, error)
}

// Env is the execution environment shared by the tasks of one engine run.
type Env struct {
	// Src supplies the decoded input tiles of a materialized run, shared by
	// its tasks. nil in virtual mode.
	Src *Inputs
	// Virtual elides all payloads: reads decode nothing, kernels run
	// nothing, and writes record estimated sizes only — but the trace and
	// flop counts are produced exactly as the engine's accounting needs.
	Virtual bool
	// TileOps turns on per-task kernel statistics (Result.Kernels) for
	// observability. Off (the default), tasks skip all tracking work so
	// the hot path is unaffected when tracing is disabled. Workers
	// accumulate the stats privately in their Result; the engine emits
	// them at replay, in scheduling order, so traces stay deterministic
	// regardless of compute parallelism.
	TileOps bool
}

// Op is one recorded I/O operation of a task, in program order. The engine
// replays ops sequentially to perform read accounting and DFS writes. An op
// names its tile by address in both modes, its matrix by number: recording
// and replaying one formats no path and looks no name up.
type Op struct {
	// Write distinguishes output writes from input reads.
	Write bool
	// Sparse marks sparse-format access. On reads it selects which node
	// cache flavor can serve the access; on writes it is informational.
	Sparse bool
	// Tile is the address of the tile.
	Tile dfs.TileAddr
	// Data is the encoded payload of a materialized write (nil for reads
	// and virtual writes).
	Data []byte
	// Size is the estimated payload size of a virtual write.
	Size int64
}

// KernelStat aggregates one kind of tile-level kernel invocation within
// a task: how many times it ran and the flops it spent. Only recorded
// when Env.TileOps is on.
type KernelStat struct {
	Kind  string
	Count int
	Flops int64
}

// Result is the outcome of one computed task: its I/O trace and the flops
// it spent. The result is immutable once returned and node-independent, so
// the engine may replay it on whichever node the task is (re)scheduled on.
type Result struct {
	Ops   []Op
	Flops int64
	// Kernels holds per-kind tile-op statistics in first-use order, nil
	// unless Env.TileOps is on.
	Kernels []KernelStat
}

// Task is one unit of compute work: task Index of a phase of a job
// (plan.Phase.Task gives its spans). Fn, the package's function for the
// phase's kind, runs the tile math against a Ctx and must be pure apart
// from the Ctx it is handed: no shared state, no dependence on which worker
// or node runs it. Tasks within one engine scheduling phase must not read
// each other's outputs (the engines' phase barriers guarantee this). Only
// a backend that computes a phase builds its tasks; one that serves a
// recorded phase builds none.
type Task struct {
	Env   Env
	Job   *plan.Job
	Phase *plan.Phase
	Index int
	Fn    func(*Ctx, *Task) error
}

// Backend runs compute tasks. Results do not depend on the backend's width;
// only wall-clock does.
type Backend interface {
	// RunBatch accepts phase ph of job j, run in env, and returns a fetch
	// function: fetch(i) yields the result of the phase's task i,
	// computing or waiting as needed. fetch must only be called from the
	// engine's scheduling goroutine; it may be called in any order, at most
	// once per index effectively (repeat calls return the memoized result).
	// The caller calls release when it is done with the batch, whether or
	// not it fetched every result: the backend starts no further task, and
	// release returns once none is running.
	RunBatch(env Env, j *plan.Job, ph *plan.Phase) (fetch func(i int) (*Result, error), release func())
}

// runTask executes one task. A materialized task holds a token of the
// host's compute budget while it runs (a virtual one does no tile math);
// the tiles it owns go back to the process-wide pool when it ends.
func runTask(t *Task) (*Result, error) {
	if !t.Env.Virtual {
		linalg.AcquireToken()
		defer linalg.ReleaseToken()
	}
	c := newCtx(t.Env, t.ops())
	defer c.release()
	if err := t.Fn(c, t); err != nil {
		return nil, err
	}
	return &c.res, nil
}

// poolBackend computes a batch on up to n goroutines, of which the
// scheduling goroutine is one: inside fetch it computes the task it was
// asked for, or, while a helper goroutine has that one in flight, another
// task nobody has started. Helpers claim tasks in index order. With n = 1
// there are no helpers and each task is computed exactly when the engine
// first asks for its result, on the goroutine that asks: the sequential
// reference, in which compute interleaves with accounting in scheduling
// order. Completion order is otherwise arbitrary, but fetch answers per
// index, so nothing about scheduling depends on it.
type poolBackend struct {
	n int // most tasks in flight; 0 means as many as the compute budget has tokens
}

// NewSequential returns the sequential reference backend.
func NewSequential() Backend { return &poolBackend{n: 1} }

// NewPool returns a backend that keeps at most `workers` tasks in flight,
// or as many as the host's compute budget allows (linalg.Parallelism) when
// workers is 0 or more than that.
func NewPool(workers int) Backend { return &poolBackend{n: max(workers, 0)} }

// batch is one RunBatch call: the tasks, their memoized results and who
// has started which.
type batch struct {
	ts       []Task
	mu       sync.Mutex
	finished sync.Cond // the scheduling goroutine waits here for a task in flight
	slots    []batchSlot
	next     int  // helpers and the idle scheduling goroutine claim from here up
	released bool // no further claims
}

type batchSlot struct {
	res           *Result
	err           error
	claimed, done bool
}

// claimNext claims the lowest-indexed task nobody has started, or returns
// -1 when there is none or the batch was released. b.mu must be held.
func (b *batch) claimNext() int {
	for ; !b.released && b.next < len(b.ts); b.next++ {
		if s := &b.slots[b.next]; !s.claimed {
			s.claimed = true
			return b.next
		}
	}
	return -1
}

// run computes a claimed task and publishes its result.
func (b *batch) run(i int) {
	res, err := runTask(&b.ts[i])
	b.mu.Lock()
	b.slots[i].res, b.slots[i].err, b.slots[i].done = res, err, true
	b.mu.Unlock()
	b.finished.Broadcast()
}

func (p *poolBackend) RunBatch(env Env, j *plan.Job, ph *plan.Phase) (func(int) (*Result, error), func()) {
	return p.runBatch(phaseTasks(env, j, ph))
}

// runBatch is RunBatch over tasks already built: the phase's, or a test's.
func (p *poolBackend) runBatch(ts []Task) (func(int) (*Result, error), func()) {
	b := &batch{ts: ts, slots: make([]batchSlot, len(ts))}
	b.finished.L = &b.mu
	width := linalg.Parallelism()
	if p.n > 0 && p.n < width {
		width = p.n
	}
	var helpers sync.WaitGroup
	for h := min(width, len(ts)) - 1; h > 0; h-- {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			for {
				b.mu.Lock()
				i := b.claimNext()
				b.mu.Unlock()
				if i < 0 {
					return
				}
				b.run(i)
			}
		}()
	}
	fetch := func(i int) (*Result, error) {
		b.mu.Lock()
		s := &b.slots[i]
		for !s.done {
			j := i
			if s.claimed {
				// A helper has task i in flight: compute another meanwhile.
				if j = b.claimNext(); j < 0 {
					b.finished.Wait()
					continue
				}
			}
			b.slots[j].claimed = true
			b.mu.Unlock()
			b.run(j)
			b.mu.Lock()
		}
		b.mu.Unlock()
		return s.res, s.err
	}
	return fetch, func() {
		b.mu.Lock()
		b.released = true
		b.mu.Unlock()
		helpers.Wait()
	}
}
