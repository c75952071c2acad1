package linalg_test

import (
	"fmt"
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

// mathWatch counts the goroutines inside the blocked GEMM drivers through
// the package's test hook and keeps the high-water mark. With meet > 0 a
// goroutine that enters waits (bounded) until meet of them are inside, so a
// test can require that many at once without depending on the scheduler.
type mathWatch struct {
	inside, high atomic.Int32
	meet         int32
	full         chan struct{}
	once         sync.Once
}

func watchMath(t *testing.T, meet int) *mathWatch {
	w := &mathWatch{meet: int32(meet), full: make(chan struct{})}
	linalg.SetMathHook(func(delta int) {
		n := w.inside.Add(int32(delta))
		if delta < 0 {
			return
		}
		for h := w.high.Load(); n > h && !w.high.CompareAndSwap(h, n); h = w.high.Load() {
		}
		if w.meet == 0 {
			return
		}
		if n >= w.meet {
			w.once.Do(func() { close(w.full) })
		}
		select {
		case <-w.full:
		case <-time.After(5 * time.Second):
		}
	})
	t.Cleanup(func() { linalg.SetMathHook(nil) })
	return w
}

// bigGemmPhase returns a materialized phase of n tasks that each run one
// product above the parallel tier's flop gate, over 5 macro-panel cells:
// C = A * B with A a column of n square tiles, one task per tile of C, and
// the environment whose inputs hold A and B.
func bigGemmPhase(t *testing.T, n int) (compute.Env, *plan.Job, *plan.Phase) {
	t.Helper()
	const dim = 260 // 2·260³ ≈ 35 Mflop
	prog, err := lang.Parse(fmt.Sprintf("input A %d %d\ninput B %d %d\nC = A * B\noutput C\n", n*dim, dim, dim, dim))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(prog, plan.Config{TileSize: dim})
	if err != nil {
		t.Fatal(err)
	}
	src := tileSource{}
	for i, in := range pl.Inputs {
		d := linalg.RandomDense(in.Rows, in.Cols, int64(i+1))
		for ti := 0; ti < in.TileRows(); ti++ {
			src[in.Tile(ti, 0)] = store.EncodeTile(d.TileAt(ti, 0, dim))
		}
	}
	j := pl.Jobs[0]
	j.Split = plan.Split{CI: n, CJ: 1, CK: 1}
	return compute.Env{Src: compute.NewInputs(src)}, j, &j.Phases()[0]
}

// tileSource is an in-memory compute.Source.
type tileSource map[dfs.TileAddr][]byte

func (s tileSource) PeekTile(a dfs.TileAddr) ([]byte, error) { return s[a], nil }

func runBatch(t *testing.T, be compute.Backend, n int) {
	t.Helper()
	env, j, ph := bigGemmPhase(t, n)
	fetch, release := be.RunBatch(env, j, ph)
	defer release()
	for i := range n {
		if _, err := fetch(i); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBudgetBoundsTileMath is the budget's invariant seen from the kernels:
// however many tasks a pool runs and however large their products, no more
// goroutines than linalg.Parallelism() are ever inside the GEMM drivers —
// pool width and kernel width do not multiply — while a phase of one task
// gets the whole budget for its product, on either backend.
func TestBudgetBoundsTileMath(t *testing.T) {
	const budget = 4
	defer linalg.SetParallelism(linalg.SetParallelism(budget))

	t.Run("pool of tasks", func(t *testing.T) {
		w := watchMath(t, 0)
		runBatch(t, compute.NewPool(0), 3*budget)
		if h := w.high.Load(); h < 1 || h > budget {
			t.Fatalf("%d goroutines were inside the GEMM drivers at once, budget %d", h, budget)
		}
	})
	for _, be := range []struct {
		name string
		be   compute.Backend
	}{{"one task, pool", compute.NewPool(0)}, {"one task, sequential", compute.NewSequential()}} {
		t.Run(be.name, func(t *testing.T) {
			w := watchMath(t, budget)
			runBatch(t, be.be, 1)
			if h := w.high.Load(); h != budget {
				t.Fatalf("a lone task's product ran on %d goroutines, want the whole budget of %d", h, budget)
			}
		})
	}
	t.Run("budget of one", func(t *testing.T) {
		defer linalg.SetParallelism(linalg.SetParallelism(1))
		w := watchMath(t, 0)
		runBatch(t, compute.NewPool(0), 3)
		if h := w.high.Load(); h != 1 {
			t.Fatalf("%d goroutines were inside the GEMM drivers at once under a budget of 1", h)
		}
	})
}
