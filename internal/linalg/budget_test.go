package linalg_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cumulon/internal/compute"
	"cumulon/internal/linalg"
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

// bigGemmTasks returns n compute tasks that each run one product above the
// parallel tier's flop gate, over 5 macro-panel cells.
func bigGemmTasks(n int) []compute.Task {
	const dim = 260 // 2·260³ ≈ 35 Mflop
	a, b := linalg.RandomDense(dim, dim, 1), linalg.RandomDense(dim, dim, 2)
	at, bt := &linalg.Tile{Rows: dim, Cols: dim, Data: a.Data}, &linalg.Tile{Rows: dim, Cols: dim, Data: b.Data}
	ts := make([]compute.Task, n)
	for i := range ts {
		ts[i] = compute.Task{Fn: func(*compute.Ctx, *compute.Task) error {
			linalg.Gemm(linalg.NewTile(dim, dim), at, bt)
			return nil
		}}
	}
	return ts
}

func runBatch(t *testing.T, be compute.Backend, ts []compute.Task) {
	t.Helper()
	fetch, release := be.RunBatch(ts)
	defer release()
	for i := range ts {
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
		runBatch(t, compute.NewPool(0), bigGemmTasks(3*budget))
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
			runBatch(t, be.be, bigGemmTasks(1))
			if h := w.high.Load(); h != budget {
				t.Fatalf("a lone task's product ran on %d goroutines, want the whole budget of %d", h, budget)
			}
		})
	}
	t.Run("budget of one", func(t *testing.T) {
		defer linalg.SetParallelism(linalg.SetParallelism(1))
		w := watchMath(t, 0)
		runBatch(t, compute.NewPool(0), bigGemmTasks(3))
		if h := w.high.Load(); h != 1 {
			t.Fatalf("%d goroutines were inside the GEMM drivers at once under a budget of 1", h)
		}
	})
}
