package compute

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"cumulon/internal/linalg"
	"cumulon/internal/plan"
)

func TestPartitionAxis(t *testing.T) {
	cases := []struct {
		n, parts int
		want     []Span
	}{
		{0, 4, []Span{}},
		{1, 4, []Span{{Lo: 0, Hi: 1}}},
		{4, 2, []Span{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}}},
		{5, 2, []Span{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 5}}},
		{7, 3, []Span{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}, {Lo: 4, Hi: 7}}},
		{3, 1, []Span{{Lo: 0, Hi: 3}}},
	}
	for _, c := range cases {
		got := plan.PartitionAxis(c.n, c.parts)
		if len(got) != len(c.want) {
			t.Fatalf("PartitionAxis(%d,%d) = %v, want %v", c.n, c.parts, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("PartitionAxis(%d,%d) = %v, want %v", c.n, c.parts, got, c.want)
			}
		}
	}
	// Spans must always tile [0, n) exactly, in order.
	for _, n := range []int{1, 5, 16, 31, 100} {
		for _, parts := range []int{1, 2, 3, 7, 200} {
			spans := plan.PartitionAxis(n, parts)
			pos := 0
			for _, sp := range spans {
				if sp.Lo != pos || sp.Hi <= sp.Lo {
					t.Fatalf("PartitionAxis(%d,%d): bad span %v at pos %d", n, parts, sp, pos)
				}
				pos = sp.Hi
			}
			if pos != n {
				t.Fatalf("PartitionAxis(%d,%d) covers [0,%d), want [0,%d)", n, parts, pos, n)
			}
		}
	}
}

func TestKExtent(t *testing.T) {
	// 10 elements in tiles of 4: extents 4, 4, 2.
	for k, want := range []int{4, 4, 2} {
		if got := KExtent(10, 4, k); got != want {
			t.Fatalf("KExtent(10,4,%d) = %d, want %d", k, got, want)
		}
	}
	if got := KExtent(8, 4, 1); got != 4 {
		t.Fatalf("KExtent(8,4,1) = %d, want 4", got)
	}
}

// TestRunBatchErrorAndMemoization checks that both backends propagate task
// errors through fetch and memoize results across repeated fetches.
func TestRunBatchErrorAndMemoization(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		be   *poolBackend
	}{{"sequential", NewSequential().(*poolBackend)}, {"pool", NewPool(3).(*poolBackend)}} {
		runs := make([]int, 3)
		tasks := []Task{
			{Fn: func(c *Ctx, _ *Task) error { runs[0]++; c.res.Flops = 11; return nil }},
			{Fn: func(c *Ctx, _ *Task) error { runs[1]++; return boom }},
			{Fn: func(c *Ctx, _ *Task) error { runs[2]++; c.res.Flops = 33; return nil }},
		}
		fetch, release := tc.be.runBatch(tasks)
		if _, err := fetch(1); !errors.Is(err, boom) {
			t.Fatalf("%s: fetch(1) err = %v, want boom", tc.name, err)
		}
		res, err := fetch(2)
		if err != nil || res.Flops != 33 {
			t.Fatalf("%s: fetch(2) = %v, %v", tc.name, res, err)
		}
		// Repeat fetches return the memoized results without recomputing.
		for i := 0; i < 3; i++ {
			if r, err := fetch(0); err != nil || r.Flops != 11 {
				t.Fatalf("%s: fetch(0) = %v, %v", tc.name, r, err)
			}
			if _, err := fetch(1); !errors.Is(err, boom) {
				t.Fatalf("%s: repeat fetch(1) err = %v", tc.name, err)
			}
		}
		// The pool computes every task eagerly exactly once; the
		// sequential backend computes lazily, also exactly once.
		release()
		for i, n := range runs {
			if n != 1 {
				t.Fatalf("%s: task %d ran %d times", tc.name, i, n)
			}
		}
	}
}

// TestReleasedBatchStartsNothing: a pool batch whose first task fails is
// released at once, as the engine releases a phase it has lost. release
// waits for the tasks in flight and lets no other start, so most of the
// batch never computes, no task starts after release has returned, and the
// batch's helper goroutines are gone.
func TestReleasedBatchStartsNothing(t *testing.T) {
	defer linalg.SetParallelism(linalg.SetParallelism(4))
	boom := errors.New("boom")
	var started, late atomic.Int32
	var released atomic.Bool
	ts := make([]Task, 256)
	for i := range ts {
		ts[i] = Task{Env: Env{Virtual: true}, Fn: func(*Ctx, *Task) error {
			started.Add(1)
			if released.Load() {
				late.Add(1)
			}
			time.Sleep(time.Millisecond)
			if i == 0 {
				return boom
			}
			return nil
		}}
	}
	before := runtime.NumGoroutine()
	fetch, release := NewPool(0).(*poolBackend).runBatch(ts)
	if _, err := fetch(0); !errors.Is(err, boom) {
		t.Fatalf("fetch(0) err = %v, want boom", err)
	}
	release()
	released.Store(true)
	// A helper has left the batch's WaitGroup a moment before it is gone.
	for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after release, %d before the batch", n, before)
	}
	if n := started.Load(); n == 0 || n > 128 {
		t.Fatalf("%d of the batch's %d tasks were computed although its first one failed", n, len(ts))
	}
	if n := late.Load(); n != 0 {
		t.Fatalf("%d tasks started after release had returned", n)
	}
}

// TestPoolReuseZeroes guards the accumulator-recycling invariant: a
// reused buffer must come back zeroed even when the previous tenant left
// data behind, including when the new tile is smaller. A sync.Pool may drop
// what it is handed (the race detector makes it do so at random), so the
// test retries until it has seen a reuse.
func TestPoolReuseZeroes(t *testing.T) {
	for try := 0; try < 100; try++ {
		tl := newTile(4, 4, false)
		for i := range tl.Data {
			tl.Data[i] = 42
		}
		buf := &tl.Data[0]
		freeTile(tl)
		got := newTile(3, 3, true)
		if got.Rows != 3 || got.Cols != 3 || len(got.Data) != 9 {
			t.Fatalf("pooled tile shape %dx%d len %d", got.Rows, got.Cols, len(got.Data))
		}
		for i, v := range got.Data {
			if v != 0 {
				t.Fatalf("pooled tile not zeroed at %d: %g", i, v)
			}
		}
		if &got.Data[0] == buf {
			return
		}
	}
	t.Fatal("the pool never reused a released buffer")
}

// TestOpIs48Bytes: a trace op carries a tile address of three integers in
// place of a path or a matrix name, and a virtual run allocates its traces by
// the op.
func TestOpIs48Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n > 48 {
		t.Fatalf("compute.Op is %d bytes, want at most 48", n)
	}
}
