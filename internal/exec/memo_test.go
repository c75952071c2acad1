package exec_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cumulon/internal/chaos"
	"cumulon/internal/cloud"
	"cumulon/internal/compute"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/obs"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// memoCase is one configuration of the memo differential test: a workload
// at a tile size on a cluster shape, traced (TileOps on) or not, faulted or
// not.
type memoCase struct {
	name   string
	tmpl   *plan.Plan
	nodes  int
	slots  int
	traced bool
	chaos  bool
}

// memoCases are GNMF, GNMF-KL, RSVD and PageRank, each at two tile sizes and
// two cluster shapes, with TileOps on and off, fault-free and under chaos.
func memoCases(t *testing.T) []memoCase {
	t.Helper()
	wls := []struct {
		wl    workloads.Workload
		tiles [2]int
	}{
		{workloads.GNMF(6000, 4000, 10, 2, 0.05), [2]int{512, 1024}},
		{workloads.GNMFKL(3000, 2000, 8, 2, 0.05), [2]int{256, 1024}},
		{workloads.RSVD(5000, 3000, 20, 2), [2]int{512, 2048}},
		{workloads.PageRank(8000, 3, 0.01, 0.85), [2]int{1024, 4096}},
	}
	var cases []memoCase
	for _, w := range wls {
		for _, tile := range w.tiles {
			tmpl, err := plan.Compile(w.wl.Prog, plan.Config{TileSize: tile, Densities: w.wl.Densities})
			if err != nil {
				t.Fatal(err)
			}
			for _, shape := range [][2]int{{4, 2}, {3, 3}} {
				for _, traced := range []bool{false, true} {
					for _, faulted := range []bool{false, true} {
						cases = append(cases, memoCase{
							name:  fmt.Sprintf("%s/tile=%d/%dx%d/traced=%v/chaos=%v", w.wl.Name, tile, shape[0], shape[1], traced, faulted),
							tmpl:  tmpl,
							nodes: shape[0], slots: shape[1],
							traced: traced, chaos: faulted,
						})
					}
				}
			}
		}
	}
	return cases
}

// memoRun is what a run shows: its metrics, and, traced, its Chrome trace
// JSON and its events (the kernel statistics among them).
type memoRun struct {
	metrics *exec.RunMetrics
	chrome  []byte
	events  []obs.Event
}

// run executes a clone of the case's template virtually on a fresh engine
// with the given backend (nil: the engine's own). makespan, when positive,
// times the chaos schedule's node crash.
func (c memoCase) run(t *testing.T, be compute.Backend, makespan float64) memoRun {
	t.Helper()
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, c.nodes, c.slots)
	if err != nil {
		t.Fatal(err)
	}
	cfg := exec.Config{Cluster: cl, Seed: 11, NoiseFactor: 0.08, Backend: be}
	var tr *obs.Trace
	if c.traced {
		tr = obs.NewTrace()
		cfg.Recorder = tr
	}
	if c.chaos {
		cfg.Chaos = &chaos.Schedule{
			Seed:          5,
			Crashes:       []chaos.NodeCrash{{Node: 1, At: 0.4 * makespan}},
			TaskFaultProb: 0.08,
		}
	}
	e, err := exec.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl := c.tmpl.Clone()
	pl.AutoSplit(cl.TotalSlots())
	for _, in := range pl.Inputs {
		if err := e.LoadVirtual(in); err != nil {
			t.Fatal(err)
		}
	}
	m, err := e.Run(pl)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	r := memoRun{metrics: m}
	if tr != nil {
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		r.chrome, r.events = buf.Bytes(), tr.Events()
	}
	return r
}

// check fails the test unless got is identical to want.
func (c memoCase) check(t *testing.T, what string, got, want memoRun) {
	t.Helper()
	if !reflect.DeepEqual(got.metrics, want.metrics) {
		t.Fatalf("%s: the %s run's RunMetrics differ from a run without a memo", c.name, what)
	}
	if !bytes.Equal(got.chrome, want.chrome) {
		t.Fatalf("%s: the %s run's Chrome trace differs from a run without a memo", c.name, what)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Fatalf("%s: the %s run's events differ from a run without a memo", c.name, what)
	}
}

// reference runs the case without a memo, the chaos case timed off the
// fault-free makespan.
func (c memoCase) reference(t *testing.T) (memoRun, float64) {
	t.Helper()
	free := c
	free.chaos = false
	makespan := free.run(t, nil, 0).metrics.TotalSeconds
	ref := c.run(t, nil, makespan)
	if c.chaos && (ref.metrics.NodeCrashes != 1 || ref.metrics.TotalRetries == 0) {
		t.Fatalf("%s: %d crashes and %d retries; the chaos schedule exercises nothing",
			c.name, ref.metrics.NodeCrashes, ref.metrics.TotalRetries)
	}
	return ref, makespan
}

// TestMemoRunsMatchUnmemoized is the memo's differential contract: a run on
// a cold memo, which computes and records its phases, and a run on the memo
// it filled, which computes none, each give RunMetrics, Chrome trace JSON
// and kernel events byte-identical to a run without a memo — across four
// workloads, two tile sizes, two cluster shapes, TileOps on and off, and a
// node crash plus task faults. The warm run adds nothing to the memo. A
// template's cases share one memo per schedule, so a case also runs on what
// the cases before it recorded at other splits and the other TileOps.
func TestMemoRunsMatchUnmemoized(t *testing.T) {
	type owner struct {
		tmpl  *plan.Plan
		chaos bool
	}
	memos := map[owner]*compute.Memo{}
	for _, c := range memoCases(t) {
		ref, makespan := c.reference(t)
		memo := memos[owner{c.tmpl, c.chaos}]
		if memo == nil {
			memo = new(compute.Memo)
			memos[owner{c.tmpl, c.chaos}] = memo
		}
		c.check(t, "cold", c.run(t, memo, makespan), ref)
		filled := memo.Bytes()
		if filled == 0 {
			t.Fatalf("%s: the cold run recorded nothing", c.name)
		}
		c.check(t, "warm", c.run(t, memo, makespan), ref)
		if memo.Bytes() != filled {
			t.Fatalf("%s: the warm run moved the memo from %d to %d bytes", c.name, filled, memo.Bytes())
		}
	}
}

// TestMemoConcurrentWarmRuns: two runs at once on one filled memo share its
// results and each give exactly what a run without a memo does. CI runs it
// under the race detector: nothing writes a shared Result.
func TestMemoConcurrentWarmRuns(t *testing.T) {
	for _, c := range memoCases(t) {
		ref, makespan := c.reference(t)
		memo := new(compute.Memo)
		c.run(t, memo, makespan)
		var got [2]memoRun
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = c.run(t, memo, makespan)
			}()
		}
		wg.Wait()
		for _, r := range got {
			c.check(t, "concurrent warm", r, ref)
		}
	}
}

// TestMemoRecordsOnlyFinishedVirtualPhases: a materialized run handed a
// memo computes what a run without one does and records nothing, and a
// virtual run whose first phase fails records nothing either.
func TestMemoRecordsOnlyFinishedVirtualPhases(t *testing.T) {
	wl := workloads.GNMF(40, 30, 4, 2, 0.3)
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := wl.RandomInputs(3)
	run := func(cfg exec.Config) (map[string]*linalg.Dense, *exec.RunMetrics, error) {
		e, err := exec.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.Compile(wl.Prog, plan.Config{TileSize: 8, Densities: wl.Densities})
		if err != nil {
			t.Fatal(err)
		}
		pl.AutoSplit(cl.TotalSlots())
		for _, in := range pl.Inputs {
			if cfg.Materialize {
				err = e.LoadDense(in, data[in.Name])
			} else {
				err = e.LoadVirtual(in)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		m, err := e.Run(pl)
		if err != nil {
			return nil, nil, err
		}
		outs := map[string]*linalg.Dense{}
		for name, meta := range pl.Outputs {
			if cfg.Materialize {
				if outs[name], err = e.FetchOutput(meta); err != nil {
					t.Fatal(err)
				}
			}
		}
		return outs, m, nil
	}
	memo := new(compute.Memo)
	wantOuts, wantM, err := run(exec.Config{Cluster: cl, Materialize: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gotOuts, gotM, err := run(exec.Config{Cluster: cl, Materialize: true, Seed: 11, Backend: memo})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotM, wantM) || !reflect.DeepEqual(gotOuts, wantOuts) {
		t.Fatal("a materialized run handed a memo differs from one without")
	}
	if n := memo.Bytes(); n != 0 {
		t.Fatalf("a materialized run recorded %d bytes", n)
	}
	failing := &chaos.Schedule{Seed: 1, TaskFaultProb: 1}
	if _, _, err := run(exec.Config{Cluster: cl, Seed: 11, Backend: memo, Chaos: failing, MaxTaskRetries: -1}); err == nil {
		t.Fatal("a run whose every task faults succeeded")
	}
	if n := memo.Bytes(); n != 0 {
		t.Fatalf("a failed phase recorded %d bytes", n)
	}
}

// TestMemoServesOnlyTheRecordedSplit: a job's phase recorded under one split
// is not served under another with as many tasks — (2, 4) and (4, 2) cut one
// 8 x 8 grid into eight tasks each — and the run at the new split matches
// one without a memo.
func TestMemoServesOnlyTheRecordedSplit(t *testing.T) {
	prog, err := lang.Parse("input A 64 64\nB = A .* A + A\noutput B\n")
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := plan.Compile(prog, plan.Config{TileSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(split plan.Split, be compute.Backend) *exec.RunMetrics {
		e, err := exec.New(exec.Config{Cluster: cl, Seed: 3, Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		pl := tmpl.Clone()
		for _, j := range pl.Jobs {
			j.Split = split
		}
		for _, in := range pl.Inputs {
			if err := e.LoadVirtual(in); err != nil {
				t.Fatal(err)
			}
		}
		m, err := e.Run(pl)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	memo := new(compute.Memo)
	run(plan.Split{CI: 2, CJ: 4, CK: 1}, memo)
	swapped := plan.Split{CI: 4, CJ: 2, CK: 1}
	if got, want := run(swapped, memo), run(swapped, nil); !reflect.DeepEqual(got, want) {
		t.Fatal("a run at a new split with as many tasks differs from one without a memo")
	}
}
