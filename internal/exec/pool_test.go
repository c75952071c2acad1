package exec

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cumulon/internal/compute"
	"cumulon/internal/dfs"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// TestCorruptTileFailsTaskThroughPooledDecode: the checksum and the CSR
// structure are still verified on every decode into a pooled buffer, so a
// flipped payload byte in the DFS fails the task that reads the tile with
// store.ErrCorrupt instead of feeding garbage to a kernel.
func TestCorruptTileFailsTaskThroughPooledDecode(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		e := newTestEngine(t, 4, 2, true)
		src := "input V 12 12\ninput W 12 4\nX = V * W\noutput X\n"
		cfg := plan.Config{TileSize: 4}
		if sparse {
			src = "input V 12 12 sparse\ninput W 12 4\nX = V * W\noutput X\n"
			cfg.Densities = map[string]float64{"V": 0.5}
		}
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.Compile(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pl.AutoSplit(8)
		data := map[string]*linalg.Dense{"V": linalg.RandomSparseDense(12, 12, 0.5, 1), "W": linalg.RandomDense(12, 4, 2)}
		for _, in := range pl.Inputs {
			if err := e.LoadDense(in, data[in.Name]); err != nil {
				t.Fatal(err)
			}
		}
		flipTile(t, e.FS(), dfs.TileAddr{Matrix: "V", TI: 1, TJ: 1})
		if _, err := e.Run(pl); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("sparse=%v: run over a corrupted tile returned %v, want store.ErrCorrupt", sparse, err)
		}
	}
}

// replaceTile stores data as the tile at a in place of the one there: stored
// payloads are immutable, so a corrupt tile is a new file.
func replaceTile(t *testing.T, fs *dfs.FS, a dfs.TileAddr, data []byte) {
	t.Helper()
	b := fs.Batch()
	defer b.Done()
	b.Delete(a)
	if err := b.Write(a, data, -1); err != nil {
		t.Fatal(err)
	}
}

// flipTile replaces the tile at a by a copy with one bit of its middle byte
// flipped.
func flipTile(t *testing.T, fs *dfs.FS, a dfs.TileAddr) {
	t.Helper()
	raw, err := fs.PeekTile(a)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x40
	replaceTile(t, fs, a, bad)
}

// afterFirstTask is a backend whose tasks call then once, as the first of
// them to finish computing returns.
type afterFirstTask struct {
	compute.Backend
	then func()
	once sync.Once
}

func (b *afterFirstTask) RunBatch(ts []compute.Task) (func(int) (*compute.Result, error), func()) {
	wrapped := append([]compute.Task(nil), ts...)
	for i := range wrapped {
		fn := wrapped[i].Fn
		wrapped[i].Fn = func(c *compute.Ctx, t *compute.Task) error {
			err := fn(c, t)
			b.once.Do(b.then)
			return err
		}
	}
	return b.Backend.RunBatch(wrapped)
}

// TestInPlaceCorruptionFailsSharedRead: the tasks of a run share what it
// decodes, and a read that finds its payload decoded already still verifies
// the bytes. Every task of X = A * B reads all of A; once the first has
// decoded it, one byte of each of A's payloads is flipped in place — the
// same backing array, which is all that identifies a decoded payload — and
// the next task must fail with store.ErrCorrupt, for a dense A and a sparse
// one. Skipping the checksum on a shared read fails this test.
func TestInPlaceCorruptionFailsSharedRead(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		src := "input A 4 12\ninput B 12 12\nX = A * B\noutput X\n"
		cfg := plan.Config{TileSize: 4}
		if sparse {
			src = "input A 4 12 sparse\ninput B 12 12\nX = A * B\noutput X\n"
			cfg.Densities = map[string]float64{"A": 0.5}
		}
		var e *Engine
		be := &afterFirstTask{Backend: compute.NewSequential(), then: func() {
			for tj := 0; tj < 3; tj++ {
				raw, err := e.FS().PeekTile(dfs.TileAddr{Matrix: "A", TJ: int32(tj)})
				if err != nil {
					t.Error(err)
					return
				}
				raw[len(raw)/2] ^= 0x40
			}
		}}
		e, err := New(Config{Cluster: testCluster(t, 4, 2), Materialize: true, Seed: 7, Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.Compile(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pl.Jobs[0].Split = plan.Split{CI: 1, CJ: 3, CK: 1}
		data := map[string]*linalg.Dense{"A": linalg.RandomSparseDense(4, 12, 0.5, 1), "B": linalg.RandomDense(12, 12, 2)}
		for _, in := range pl.Inputs {
			if err := e.LoadDense(in, data[in.Name]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Run(pl); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("sparse=%v: a run whose decoded payloads were corrupted in place returned %v, want store.ErrCorrupt", sparse, err)
		}
	}
}

// TestMisshapenDenseTileFailsTask: a well-formed dense payload of the wrong
// shape — V's tile (1, 1) stored 2x8 where the meta says 4x4 — fails the
// task that reads it with an error naming the tile, in a product and in an
// element-wise map, on the sequential backend and on the pool. It used to
// reach a kernel, whose shape check panics: on a pool helper goroutine, the
// process.
func TestMisshapenDenseTileFailsTask(t *testing.T) {
	defer linalg.SetParallelism(linalg.SetParallelism(4))
	for _, stmt := range []string{"V * W", "V .* W + V"} {
		for _, be := range []compute.Backend{compute.NewSequential(), compute.NewPool(0)} {
			e, err := New(Config{Cluster: testCluster(t, 4, 2), Materialize: true, Seed: 7, Backend: be})
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Parse("input V 12 12\ninput W 12 12\nX = " + stmt + "\noutput X\n")
			if err != nil {
				t.Fatal(err)
			}
			pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			pl.AutoSplit(8)
			for _, in := range pl.Inputs {
				if err := e.LoadDense(in, linalg.RandomDense(12, 12, 3)); err != nil {
					t.Fatal(err)
				}
			}
			a := dfs.TileAddr{Matrix: "V", TI: 1, TJ: 1}
			replaceTile(t, e.FS(), a, store.EncodeTile(linalg.RandomDense(2, 8, 4).TileAt(0, 0, 8)))
			if _, err := e.Run(pl); err == nil || !strings.Contains(err.Error(), "tile "+a.Path()+" is stored 2x8, want 4x4") {
				t.Errorf("%s (backend %T): run over a misshapen tile returned %v, want the stored-shape mismatch", stmt, be, err)
			}
		}
	}
}

// TestRetryRewritesOwnedPayloads: the DFS takes ownership of Op.Data, and a
// Result is replayed as is when its attempt fails half-way: the partial
// writes are rolled back and the retry hands the same slices to the DFS
// again. That is safe because stored payloads are immutable — asserted
// here by failing the second write of a two-write trace, retrying, and
// finding both files holding the trace's exact bytes, unchanged.
func TestRetryRewritesOwnedPayloads(t *testing.T) {
	e := newTestEngine(t, 4, 2, true)
	first := store.EncodeTile(linalg.RandomDense(4, 4, 1).TileAt(0, 0, 4))
	second := store.EncodeTile(linalg.RandomDense(4, 4, 2).TileAt(0, 0, 4))
	wantFirst, wantSecond := append([]byte(nil), first...), append([]byte(nil), second...)
	res := &compute.Result{Ops: []compute.Op{
		{Write: true, Tile: dfs.TileAddr{Matrix: "X", TI: 0, TJ: 0}, Data: first},
		{Write: true, Tile: dfs.TileAddr{Matrix: "X", TI: 0, TJ: 1}, Data: second},
	}}
	replaceTile(t, e.FS(), res.Ops[1].Tile, []byte("in the way"))
	if _, err := e.applyResult(res, 1); err == nil {
		t.Fatal("replay over an existing tile succeeded")
	}
	if _, err := e.FS().PeekTile(res.Ops[0].Tile); !errors.Is(err, dfs.ErrNotFound) {
		t.Fatal("the failed attempt's partial write was not rolled back")
	}
	b := e.FS().Batch()
	b.Delete(res.Ops[1].Tile)
	b.Done()
	if _, err := e.applyResult(res, 2); err != nil {
		t.Fatalf("retry: %v", err)
	}
	for i, want := range [][]byte{wantFirst, wantSecond} {
		got, err := e.FS().PeekTile(res.Ops[i].Tile)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%+v after retry: %v, bytes equal %v", res.Ops[i].Tile, err, bytes.Equal(got, want))
		}
	}
	if !bytes.Equal(first, wantFirst) || !bytes.Equal(second, wantSecond) {
		t.Fatal("replaying a Result modified its payloads")
	}
}

// spyBackend is the default pool with every task's Fn wrapped: it counts the
// Fns started, slows each down so that a batch outlives the engine's
// interest in it, and counts those that start after the run has returned.
type spyBackend struct {
	compute.Backend
	batch         int // tasks in the last batch
	started, late atomic.Int32
	returned      atomic.Bool
}

func (s *spyBackend) RunBatch(ts []compute.Task) (func(int) (*compute.Result, error), func()) {
	s.batch = len(ts)
	spied := append([]compute.Task(nil), ts...)
	for i := range spied {
		fn := spied[i].Fn
		spied[i].Fn = func(c *compute.Ctx, t *compute.Task) error {
			s.started.Add(1)
			if s.returned.Load() {
				s.late.Add(1)
			}
			time.Sleep(time.Millisecond)
			return fn(c, t)
		}
	}
	return s.Backend.RunBatch(spied)
}

// TestAbandonedPhaseStopsComputing: once a phase is lost — here its first
// task reads a corrupt tile and exhausts its retries — the pool must not
// go on computing the rest of it behind the caller's back. The batch is
// released on every exit path of schedulePhase, and release waits for the
// workers, so no task Fn starts after Run has returned, most of the phase
// never runs at all, and the pool's goroutines are gone.
func TestAbandonedPhaseStopsComputing(t *testing.T) {
	spy := &spyBackend{Backend: compute.NewPool(0)}
	e, err := New(Config{Cluster: testCluster(t, 4, 2), Materialize: true, Seed: 7, Backend: spy})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse("input V 64 64\ninput W 64 64\nX = V * W\noutput X\n")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	pl.AutoSplit(8)
	pl.Jobs[0].Split = plan.Split{CI: 16, CJ: 16, CK: 1} // one task per output tile
	for _, in := range pl.Inputs {
		if err := e.LoadDense(in, linalg.RandomDense(64, 64, 3)); err != nil {
			t.Fatal(err)
		}
	}
	flipTile(t, e.FS(), dfs.TileAddr{Matrix: "V"})

	before := runtime.NumGoroutine()
	_, err = e.Run(pl)
	spy.returned.Store(true)
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("run over a corrupted tile returned %v, want store.ErrCorrupt", err)
	}
	// A worker has left the batch's WaitGroup a moment before it is gone.
	for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the failed run, %d before it", n, before)
	}
	if n := spy.started.Load(); spy.batch != 256 || n == 0 || n > 128 {
		t.Fatalf("%d of the phase's %d tasks were computed although its first one failed", n, spy.batch)
	}
	if n := spy.late.Load(); n != 0 {
		t.Fatalf("%d task Fns started after Run had returned", n)
	}
}
