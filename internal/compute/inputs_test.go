package compute_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"cumulon/internal/compute"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
)

// formHash hashes a decoded form's shape and contents.
func formHash(form any) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	switch f := form.(type) {
	case *linalg.Tile:
		put(uint64(f.Rows), uint64(f.Cols))
		for _, v := range f.Data {
			put(math.Float64bits(v))
		}
	case *linalg.CSRTile:
		put(uint64(f.Rows), uint64(f.Cols))
		for _, p := range f.RowPtr {
			put(uint64(p))
		}
		for i, c := range f.ColIdx {
			put(uint64(c), math.Float64bits(f.Val[i]))
		}
	}
	return h.Sum64()
}

// TestTaskStructsKeepTheirSizeClass: every virtual task allocates a Ctx, and
// a virtual run has no Inputs, so what a materialized run shares sits behind
// Env's one pointer: the Ctx may not outgrow its 144-byte size class, or
// every virtual task would pay for it. A Task is no allocation of its own
// but an element of its phase's slice — its env, job, phase, position and
// function, 48 bytes — so every task of a phase pays for any growth.
func TestTaskStructsKeepTheirSizeClass(t *testing.T) {
	if c, k := unsafe.Sizeof(compute.Ctx{}), unsafe.Sizeof(compute.Task{}); c > 144 || k > 48 {
		t.Fatalf("Ctx is %d bytes and Task %d: past the 144-byte size class and the 48 bytes of a task value", c, k)
	}
}

// TestInputsDecodeOncePerRun: a materialized run decodes each stored payload
// once — dense, CSR, and the transpose of a dense tile — however many of its
// tasks read it. The programs have the tile grids of the perf harness's
// gnmf_sparse (V 16 x 12 tiles, W 16 x 1, H 1 x 12; 276 tasks, which decoded
// 1 208 dense and 768 CSR payloads and built 384 transposes when each task
// decoded its own) and dense_matmul (2 x 2 tiles and a k-split; 24 decodes)
// at a fraction of their tile sizes. On the sequential backend no two tasks
// race on a tile, so every decode is kept; the default one keeps the same.
func TestInputsDecodeOncePerRun(t *testing.T) {
	defer compute.SetInputHook(nil)
	var mu sync.Mutex
	var kept map[string]int
	compute.SetInputHook(func(kind string, _ any, keep bool) {
		mu.Lock()
		defer mu.Unlock()
		if keep {
			kept[kind]++
		}
	})
	const m, n, r = 256, 192, 4
	gnmf := poolCase{
		name: "gnmf_sparse",
		src: fmt.Sprintf("input V %d %d sparse\ninput W %d %d\ninput H %d %d\nfor i in 1:2 {\n"+
			"  H = H .* (W' * V) ./ ((W' * W) * H)\n  W = W .* (V * H') ./ (W * (H * H'))\n  checkpoint\n}\noutput W\noutput H\n",
			m, n, m, r, r, n),
		cfg: plan.Config{TileSize: 16, Densities: map[string]float64{"V": 0.05}},
		data: map[string]*linalg.Dense{
			"V": linalg.RandomSparseDense(m, n, 0.05, 1),
			"W": linalg.RandomDense(m, r, 2).Map(func(x float64) float64 { return x + 0.5 }),
			"H": linalg.RandomDense(r, n, 3).Map(func(x float64) float64 { return x + 0.5 }),
		},
	}
	matmul := poolCase{
		name:       "dense_matmul",
		src:        "input A 64 64\ninput B 64 64\nC = A * B\noutput C\n",
		cfg:        plan.Config{TileSize: 32},
		data:       map[string]*linalg.Dense{"A": linalg.RandomDense(64, 64, 1), "B": linalg.RandomDense(64, 64, 2)},
		wantKSplit: true,
	}
	for _, c := range []struct {
		poolCase
		tasks int
		want  map[string]int
	}{
		{gnmf, 276, map[string]int{"dense": 288, "csr": 192, "transpose": 24}},
		{matmul, 12, map[string]int{"dense": 16}},
	} {
		for _, be := range []compute.Backend{compute.NewSequential(), nil} {
			kept = map[string]int{}
			_, _, metrics := c.run(t, be)
			if len(metrics.Tasks) != c.tasks {
				t.Fatalf("%s: %d tasks, want %d: not the grid the counts are for", c.name, len(metrics.Tasks), c.tasks)
			}
			if !reflect.DeepEqual(kept, c.want) {
				t.Errorf("%s (backend %T): decoded %v, want %v", c.name, be, kept, c.want)
			}
		}
	}
}

// TestSharedInputsStayReadOnly: the tasks of a run share its decoded inputs,
// so none may write into one. The hook hashes every decoded form as the run's
// Inputs keep it and again as they recycle it, which they must have done
// with all of them by the time Run returns; and with pools poisoned, at
// compute budgets of 1, 2 and 4 tokens, every run must match the un-pooled
// sequential oracle's outputs, trace and metrics — a copy recycled while a
// task still used it, such as the loser's of two tasks that decoded one tile
// at once, would turn into NaNs. CI runs budget 4 under -race ten times over.
func TestSharedInputsStayReadOnly(t *testing.T) {
	defer compute.SetPoolMode(compute.PoolReuse)
	defer compute.SetInputHook(nil)
	var mu sync.Mutex
	kept := map[any]uint64{}
	var written []string
	compute.SetInputHook(func(kind string, form any, keep bool) {
		mu.Lock()
		defer mu.Unlock()
		switch h, ok := kept[form]; {
		case keep:
			kept[form] = formHash(form)
		case !ok:
			written = append(written, "recycled a "+kind+" it never kept")
		case formHash(form) != h:
			written = append(written, "a task wrote into a shared "+kind+" tile")
		}
		if !keep {
			delete(kept, form)
		}
	})
	check := func(t *testing.T) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(written) > 0 || len(kept) > 0 {
			t.Errorf("%v; %d decoded forms outlived the run", written, len(kept))
		}
		written, kept = nil, map[any]uint64{}
	}
	for _, c := range poolCases() {
		t.Run(c.name, func(t *testing.T) {
			compute.SetPoolMode(compute.PoolOff)
			wantOuts, wantTrace, wantM := c.run(t, compute.NewSequential())
			check(t)
			compute.SetPoolMode(compute.PoolPoison)
			for _, budget := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
					defer linalg.SetParallelism(linalg.SetParallelism(budget))
					outs, trace, m := c.run(t, compute.NewPool(0))
					check(t)
					for name, want := range wantOuts {
						if !reflect.DeepEqual(outs[name].Data, want.Data) {
							t.Errorf("output %s differs from the un-pooled oracle (maxdiff %g)", name, outs[name].MaxAbsDiff(want))
						}
					}
					if !bytes.Equal(trace, wantTrace) || !reflect.DeepEqual(m, wantM) {
						t.Error("trace or RunMetrics differ from the un-pooled oracle")
					}
				})
			}
		})
	}
}
