package exec_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"cumulon/internal/compute"
	"cumulon/internal/core"
	"cumulon/internal/dfs"
	"cumulon/internal/exec"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// traceBackend is a backend that renders every result the engine fetches,
// in the order the engine fetches them: each op's kind, format, tile path
// and size or payload digest, and the task's flops. A tile's path is
// rendered from its matrix's name in the plan the tasks come from: a plan
// matrix's by its number, a k-split partial's from its phase's partials.
type traceBackend struct {
	compute.Backend
	pl  *plan.Plan
	out bytes.Buffer
}

func (b *traceBackend) RunBatch(env compute.Env, j *plan.Job, ph *plan.Phase) (func(int) (*compute.Result, error), func()) {
	fetch, release := b.Backend.RunBatch(env, j, ph)
	name := func(num int32) string {
		if int(num) < len(b.pl.Names) {
			return b.pl.Names[num]
		}
		for _, p := range ph.Partials {
			if p.Num == num {
				return p.Name
			}
		}
		panic(fmt.Sprintf("matrix number %d names nothing in the plan", num))
	}
	return func(i int) (*compute.Result, error) {
		res, err := fetch(i)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b.out, "task %d flops %d\n", i, res.Flops)
		for _, op := range res.Ops {
			kind := "R"
			if op.Write {
				kind = "W"
			}
			fmt.Fprintf(&b.out, "%s %v %s %d", kind, op.Sparse, dfs.TilePath(name(op.Tile.Matrix), op.Tile.TI, op.Tile.TJ), op.Size)
			if op.Data != nil {
				fmt.Fprintf(&b.out, " %x", sha256.Sum256(op.Data))
			}
			b.out.WriteByte('\n')
		}
		return res, nil
	}, release
}

// TestOpTracesPinned pins the rendered op trace of every task the engine
// runs — virtually for GNMF, GNMF-KL, RSVD and PageRank at two tile sizes
// each, materialized for a small GNMF — to its sha256, recorded before tile
// addresses replaced formatted paths in the trace; the materialized case's
// since its inputs come from core.RandomInputs. AutoSplit k-splits the
// skinny products, so aggregation tasks and their partial matrices are in
// the traces too.
func TestOpTracesPinned(t *testing.T) {
	cases := []struct {
		wl          workloads.Workload
		tile        int
		materialize bool
		want        string
	}{
		{workloads.GNMF(6000, 4000, 10, 2, 0.05), 512, false, "70b2e8a86628d6e140613c16324cdf016818b8857996ae5dc683617965e75b87"},
		{workloads.GNMF(6000, 4000, 10, 2, 0.05), 1024, false, "f9349d240e7029d977bcde74d3a239946169ee7b4df8fb2bde19f240e3b0bbc3"},
		{workloads.GNMFKL(3000, 2000, 8, 2, 0.05), 256, false, "346db63005b90ae25d7869d43aa13e50846fc08d32ae31fa55982412f8ef71be"},
		{workloads.GNMFKL(3000, 2000, 8, 2, 0.05), 1024, false, "ddc52a8defaa1a28bb9bb52dcd22f981002c7636748bdecc0d581bf77e067248"},
		{workloads.RSVD(5000, 3000, 20, 2), 512, false, "165430c95edd37117e5b0a312c3b399ed3df36b2754df07ae070ade726e9e91f"},
		{workloads.RSVD(5000, 3000, 20, 2), 2048, false, "82676427f10bd7762f5f0d017e70dbac2ddac289327e5dc2b375f0ca0f1d8709"},
		{workloads.PageRank(8000, 3, 0.01, 0.85), 1024, false, "7adf6ed54e320b9499195094427445582f062a3beccb7396d3b372d1be2f62e2"},
		{workloads.PageRank(8000, 3, 0.01, 0.85), 4096, false, "b18012bc46ab4724be239d54db9f9dff25bb3d13da3fd6c7b7e762f58558aa80"},
		{workloads.GNMF(40, 30, 4, 2, 0.3), 8, true, "56f1a77b7ccc1288706b1bf77c459c50033fc0264862a48725b3938c2345b33b"},
	}
	kSplits := 0
	for _, c := range cases {
		name := fmt.Sprintf("%s/tile=%d/materialize=%v", c.wl.Name, c.tile, c.materialize)
		be := &traceBackend{Backend: compute.NewSequential()}
		e, err := exec.New(exec.Config{Cluster: faultCluster(t, 4, 2), Materialize: c.materialize, Seed: 11, Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.Compile(c.wl.Prog, plan.Config{TileSize: c.tile, Densities: c.wl.Densities})
		if err != nil {
			t.Fatal(err)
		}
		pl.AutoSplit(8)
		be.pl = pl
		for _, j := range pl.Jobs {
			if j.Split.CK > 1 {
				kSplits++
			}
		}
		data := core.RandomInputs(c.wl.Prog, plan.Config{Densities: c.wl.Densities}, 3)
		for _, in := range pl.Inputs {
			if c.materialize {
				err = e.LoadDense(in, data[in.Name])
			} else {
				err = e.LoadVirtual(in)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Run(pl); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(be.out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: op trace sha256 %s, pinned %s", name, got, c.want)
		}
	}
	if kSplits == 0 {
		t.Fatal("no case k-splits a product; the aggregation traces go unpinned")
	}
}
