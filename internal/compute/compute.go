// Package compute is the shared tile-compute layer: the pure mathematics
// of task execution, factored out of the orchestration engines so that the
// same kernels serve both Cumulon's slot scheduler (package exec) and the
// MapReduce baseline (package mapred), and so that the float work can run
// on parallel worker goroutines without disturbing the engines'
// deterministic virtual time.
//
// The key design point is the split between computing and accounting. A
// Task's function reads input tiles through a non-accounting Source.Peek,
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

// Source supplies input payloads to compute tasks. Implementations must be
// safe for concurrent use (dfs.FS is). Peek returns the file contents
// without any read accounting; the engine accounts the read later when it
// replays the task's trace.
type Source interface {
	Peek(path string) ([]byte, error)
}

// Env is the execution environment shared by the tasks of one engine run.
type Env struct {
	// Src supplies tile payloads. Unused (may be nil) in virtual mode.
	Src Source
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
// replays ops sequentially to perform read accounting and DFS writes.
type Op struct {
	// Write distinguishes output writes from input reads.
	Write bool
	// Sparse marks sparse-format access. On reads it selects which node
	// cache flavor can serve the access; on writes it is informational.
	Sparse bool
	// Path is the DFS path of the tile.
	Path string
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

// Task is one unit of compute work. Fn runs the tile math against a Ctx
// and must be pure apart from the Ctx it is handed: no shared state, no
// dependence on which worker or node runs it. Tasks within one engine
// scheduling phase must not read each other's outputs (the engines'
// phase barriers guarantee this).
type Task struct {
	Env Env
	Fn  func(*Ctx) error
	// ops is the constructor's upper bound on the length of the trace, from
	// the task's span geometry: the trace and the virtual-mode seen set are
	// allocated once, at that size (0 grows them on demand).
	ops int
}

// Backend runs compute tasks. Both implementations are deterministic in
// their results; they differ only in wall-clock strategy.
type Backend interface {
	// Workers returns the backend's concurrency width (1 for sequential).
	Workers() int
	// Run computes a single task synchronously.
	Run(t *Task) (*Result, error)
	// RunBatch accepts the tasks of one scheduling phase and returns a
	// fetch function: fetch(i) yields task i's result, computing or
	// waiting as needed. fetch must only be called from the engine's
	// scheduling goroutine; it may be called in any order, at most once
	// per index effectively (repeat calls return the memoized result).
	RunBatch(ts []*Task) func(i int) (*Result, error)
}

// runTask executes one task; the input tiles it decoded go back to the
// process-wide pool when it ends.
func runTask(t *Task) (*Result, error) {
	c := newCtx(t)
	defer c.release()
	if err := t.Fn(c); err != nil {
		return nil, err
	}
	return &c.res, nil
}

// sequentialBackend computes each task lazily on the calling goroutine,
// exactly when the engine first asks for its result. This is the reference
// backend: with it, compute interleaves with accounting in the engine's
// scheduling order just as the pre-refactor engine did.
type sequentialBackend struct{}

// NewSequential returns the sequential reference backend.
func NewSequential() Backend { return sequentialBackend{} }

func (sequentialBackend) Workers() int { return 1 }

func (sequentialBackend) Run(t *Task) (*Result, error) { return runTask(t) }

func (sequentialBackend) RunBatch(ts []*Task) func(int) (*Result, error) {
	type slot struct {
		res  *Result
		err  error
		done bool
	}
	memo := make([]slot, len(ts))
	return func(i int) (*Result, error) {
		m := &memo[i]
		if !m.done {
			m.res, m.err = runTask(ts[i])
			m.done = true
		}
		return m.res, m.err
	}
}

// poolBackend fans a batch out across worker goroutines. Tasks are handed
// to workers in index order; completion order is arbitrary, but the
// engine's fetch blocks per index, so nothing about scheduling depends on
// it.
type poolBackend struct {
	n int
}

// NewPool returns a worker-pool backend of the given width. Widths below 1
// are clamped to 1 (making it equivalent to running sequentially, minus
// the lazy evaluation).
func NewPool(workers int) Backend {
	if workers < 1 {
		workers = 1
	}
	return &poolBackend{n: workers}
}

func (p *poolBackend) Workers() int { return p.n }

func (p *poolBackend) Run(t *Task) (*Result, error) { return runTask(t) }

func (p *poolBackend) RunBatch(ts []*Task) func(int) (*Result, error) {
	type slot struct {
		res *Result
		err error
	}
	out := make([]slot, len(ts))
	done := make([]chan struct{}, len(ts))
	for i := range done {
		done[i] = make(chan struct{})
	}
	idx := make(chan int)
	go func() {
		for i := range ts {
			idx <- i
		}
		close(idx)
	}()
	workers := p.n
	if workers > len(ts) {
		workers = len(ts)
	}
	for w := 0; w < workers; w++ {
		go func() {
			for i := range idx {
				out[i].res, out[i].err = runTask(ts[i])
				close(done[i])
			}
		}()
	}
	return func(i int) (*Result, error) {
		<-done[i]
		return out[i].res, out[i].err
	}
}
