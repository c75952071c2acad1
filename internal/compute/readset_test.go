package compute

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cumulon/internal/dfs"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
	"cumulon/internal/store"
)

// planResults computes every task of pl in plan order, one at a time —
// virtually when data is nil, else over an in-memory source the
// tasks' writes go back into — and returns the Results. bound >= 0 replaces
// every task's trace-length bound.
func planResults(t *testing.T, pl *plan.Plan, data map[string]*linalg.Dense, forceK bool, bound int) []*Result {
	t.Helper()
	env := Env{TileOps: true, Virtual: data == nil}
	src := mapSource{}
	if data != nil {
		for _, in := range pl.Inputs {
			loadInput(src, in, data[in.Name])
		}
		env.Src = NewInputs(src)
	}
	var out []*Result
	for _, j := range pl.Jobs {
		for _, phase := range jobTasks(tapeFns, env, j, forceK) {
			for i := range phase {
				r, err := runTaskBounded(&phase[i], bound)
				if err != nil {
					t.Fatalf("%s: %v", j, err)
				}
				for _, op := range r.Ops {
					if op.Write && data != nil {
						src[op.Tile] = op.Data
					}
				}
				out = append(out, r)
			}
		}
	}
	return out
}

// runTaskBounded is runTask with the task's trace-length bound replaced by
// bound when that is >= 0.
func runTaskBounded(t *Task, bound int) (*Result, error) {
	if bound < 0 {
		return runTask(t)
	}
	c := newCtx(t.Env, bound)
	defer c.release()
	if err := t.Fn(c, t); err != nil {
		return nil, err
	}
	return &c.res, nil
}

// TestVirtualTasksUnderEveryPoolMode extends the poisoned-pool differential
// to virtual tasks, whose only pooled state is the read set: the Results
// with the pools off (a fresh set per task) are the oracle for recycled
// sets, for sets poisoned on release, and for tasks whose trace bound is
// absent or smaller than what they read, so the set grows mid-task.
func TestVirtualTasksUnderEveryPoolMode(t *testing.T) {
	defer setPoolMode(poolReuse)
	for _, c := range diffCases() {
		for _, ts := range c.tileSizes {
			for _, forceK := range []bool{false, true} {
				_, pl := c.compile(t, ts)
				setPoolMode(poolOff)
				want := planResults(t, pl, nil, forceK, -1)
				for _, mode := range []poolMode{poolOff, poolReuse, poolPoison} {
					setPoolMode(mode)
					for _, bound := range []int{-1, 0, 1} {
						// Twice: the second pass starts on what the first released.
						for round := 0; round < 2; round++ {
							if got := planResults(t, pl, nil, forceK, bound); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s ts=%d forceK=%v: mode %d, bound %d, round %d: Results differ from the un-pooled run",
									c.name, ts, forceK, mode, bound, round)
							}
						}
					}
				}
			}
		}
	}
}

// TestVirtualReadsMatchMaterialized checks the read set against the other
// dedup the package has: a materialized task reads a tile once per format
// through its decoded-tile caches, a virtual one once through the read
// set, so a virtual trace is the materialized one with each tile's repeat
// reads dropped — same tiles, same order, writes included. Tiles compare
// by their addresses, the one name the two modes' files have in the DFS.
func TestVirtualReadsMatchMaterialized(t *testing.T) {
	paths := func(r *Result) []dfs.TileAddr {
		seen := map[dfs.TileAddr]bool{}
		var out []dfs.TileAddr
		for _, op := range r.Ops {
			p := op.Tile
			if !op.Write && seen[p] {
				continue
			}
			seen[p] = true
			out = append(out, p)
		}
		return out
	}
	for _, c := range diffCases() {
		for _, ts := range c.tileSizes {
			for _, forceK := range []bool{false, true} {
				_, pl := c.compile(t, ts)
				mat := planResults(t, pl, c.data, forceK, -1)
				virt := planResults(t, pl, nil, forceK, -1)
				for i := range mat {
					if got, want := paths(virt[i]), paths(mat[i]); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s ts=%d forceK=%v task %d:\n virtual      %v\n materialized %v", c.name, ts, forceK, i, got, want)
					}
					if len(paths(virt[i])) != len(virt[i].Ops) {
						t.Fatalf("%s ts=%d forceK=%v task %d: a virtual trace reads a tile twice: %+v", c.name, ts, forceK, i, virt[i].Ops)
					}
				}
			}
		}
	}
}

// TestReadSetMatchesMap drives one recycled set through many generations —
// across the stamp's wrap-around, poisoned in between, with size hints that
// are right, absent and too small — against a Go map.
func TestReadSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := new(readSet)
	s.gen = math.MaxUint32 - 20
	for task := 0; task < 60; task++ {
		reads := 1 + rng.Intn(300)
		s.reset([]int{reads, 0, 1}[task%3])
		if s.gen == 0 {
			t.Fatal("generation 0 is live: every untouched slot reads as seen")
		}
		oracle := map[dfs.TileAddr]bool{}
		for i := 0; i < reads; i++ {
			k := dfs.TileAddr{Matrix: int32(rng.Intn(5)), TI: int32(rng.Intn(12)), TJ: int32(rng.Intn(12))}
			if task%7 == 0 {
				k.TI, k.TJ = k.TI<<27, -k.TJ // nothing about a key is packed into fewer bits
			}
			if added := s.add(k); added == oracle[k] {
				t.Fatalf("task %d: add(%v) = %v with the key present: %v", task, k, added, oracle[k])
			}
			oracle[k] = true
		}
		if s.n != len(oracle) || 2*s.n > len(s.slots) {
			t.Fatalf("task %d: %d entries in %d slots, oracle holds %d", task, s.n, len(s.slots), len(oracle))
		}
		if task%2 == 0 {
			s.poison()
		}
	}
}

// TestVirtualTaskAllocatesNoMap pins what starting and ending a virtual
// task costs once the pool is warm: the Ctx and its trace, which outlive
// the task in its Result — no read set, whatever the task's size.
func TestVirtualTaskAllocatesNoMap(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	m := store.Meta{Name: "A", Rows: 64, Cols: 64, TileSize: 4}
	task := &Task{Env: Env{Virtual: true}, Fn: func(c *Ctx, _ *Task) error {
		for i := 0; i < 512; i++ {
			c.readVirtual(m, i%16, i/16%16)
		}
		return nil
	}}
	run := func() {
		c := newCtx(task.Env, 256)
		c.release()
	}
	run()
	if n := testing.AllocsPerRun(200, run); n > 2 {
		t.Errorf("newCtx + release of a virtual task: %v allocations, want 2 (the Ctx and its trace)", n)
	}
	r, err := runTaskBounded(task, 256)
	if err != nil || len(r.Ops) != 256 {
		t.Fatalf("512 accesses of 256 tiles traced %d reads (err %v)", len(r.Ops), err)
	}
}
