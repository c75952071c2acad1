package bench

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"cumulon/internal/opt"
)

// sharedResults runs the full suite once for all shape assertions.
var sharedResults map[string]*Result

func results(t *testing.T) map[string]*Result {
	t.Helper()
	if sharedResults == nil {
		s := NewSuite(42)
		sharedResults = map[string]*Result{}
		for _, e := range All() {
			res, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			sharedResults[e.ID] = res
		}
	}
	return sharedResults
}

func check(t *testing.T, r *Result, key string) float64 {
	t.Helper()
	v, ok := r.Checks[key]
	if !ok {
		t.Fatalf("%s: missing check %q (have %v)", r.Table.ID, key, r.Checks)
	}
	return v
}

func TestE01Shape(t *testing.T) {
	r := results(t)["E01"]
	if check(t, r, "types") < 4 {
		t.Fatal("catalog too small")
	}
	if len(r.Table.Rows) != int(r.Checks["types"]) {
		t.Fatal("row count mismatch")
	}
}

func TestE02Shape(t *testing.T) {
	r := results(t)["E02"]
	// GNMF compiles to a handful of jobs per iteration, far fewer than
	// one per operator.
	if jobs := check(t, r, "jobs:gnmf-80000x40000x10-i1"); jobs < 4 || jobs > 12 {
		t.Fatalf("gnmf jobs: %v", jobs)
	}
}

// E03/E04: Cumulon beats the MapReduce baselines, and the GNMF gap is at
// least ~2x (the paper's headline engine result).
func TestE03CumulonBeatsMR(t *testing.T) {
	r := results(t)["E03"]
	for _, n := range []string{"8192", "16384", "32768", "65536"} {
		if sp := check(t, r, "speedup:"+n); sp < 1.3 {
			t.Fatalf("n=%s: speedup %v below 1.3", n, sp)
		}
	}
}

func TestE04GNMFSpeedup(t *testing.T) {
	r := results(t)["E04"]
	for _, m := range []string{"20000", "40000", "80000"} {
		if sp := check(t, r, "speedup:"+m); sp < 2 {
			t.Fatalf("m=%s: GNMF speedup %v below 2", m, sp)
		}
		if check(t, r, "jobs:cumulon:"+m) >= check(t, r, "jobs:mr:"+m) {
			t.Fatal("Cumulon should run fewer jobs than MR")
		}
	}
}

// E05: splitting helps massively over serial execution, and on skinny
// products the best k-split is interior (k-splitting helps, but
// unboundedly fine k-splits drown in aggregation I/O).
func TestE05SplitShape(t *testing.T) {
	r := results(t)["E05"]
	if check(t, r, "best") >= check(t, r, "serial")/4 {
		t.Fatal("good splits should beat serial by >4x on 16 slots")
	}
	bestCk := check(t, r, "skinny:bestCk")
	if bestCk <= 1 {
		t.Fatal("skinny product should want ck > 1")
	}
	if check(t, r, "skinny:best") >= check(t, r, "skinny:ck1") {
		t.Fatal("k-splitting should beat ck=1 on the skinny product")
	}
}

// E06: the best slot count is at or above the core count (4 on
// m1.xlarge) but oversubscription eventually hurts.
func TestE06SlotShape(t *testing.T) {
	r := results(t)["E06"]
	best := check(t, r, "bestSlots:matmul")
	if best < 3 || best > 6 {
		t.Fatalf("matmul best slots %v outside [3,6]", best)
	}
	if check(t, r, "tbest:matmul") >= check(t, r, "t1:matmul") {
		t.Fatal("tuned slots should beat 1 slot")
	}
}

// E07/E08: model and simulator accuracy in the ~10% band the paper
// reports.
func TestE07ModelAccuracy(t *testing.T) {
	r := results(t)["E07"]
	for k, v := range r.Checks {
		if strings.HasPrefix(k, "mre:") && v > 0.15 {
			t.Fatalf("%s: mean relative error %v above 0.15", k, v)
		}
	}
}

func TestE08SimAccuracy(t *testing.T) {
	r := results(t)["E08"]
	if w := check(t, r, "worst"); w > 0.25 {
		t.Fatalf("worst prediction error %v above 0.25", w)
	}
}

// E09: times fall with cluster size; RSVD reaches a solid speedup.
func TestE09Scaling(t *testing.T) {
	r := results(t)["E09"]
	if check(t, r, "gnmf:32") >= check(t, r, "gnmf:2") {
		t.Fatal("GNMF not faster on 32 nodes than on 2")
	}
	if sp := check(t, r, "rsvdSpeedup:32"); sp < 4 {
		t.Fatalf("RSVD speedup at 32 nodes only %v", sp)
	}
}

// E10: cost versus deadline is a non-increasing staircase.
func TestE10CostStaircase(t *testing.T) {
	r := results(t)["E10"]
	if _, bad := r.Checks["nonmonotone"]; bad {
		t.Fatal("cost increased as the deadline loosened")
	}
	if check(t, r, "cost:0.5h") <= check(t, r, "cost:16h") {
		t.Fatal("tight deadlines should cost more than loose ones")
	}
	if check(t, r, "frontier") < 5 {
		t.Fatal("Pareto frontier suspiciously small")
	}
}

// E11: on I/O-bound work the machine choice flips from cheap (loose
// deadline) to premium (tight deadline).
func TestE11Crossover(t *testing.T) {
	r := results(t)["E11"]
	if check(t, r, "io:8:xlarge") != 0 {
		t.Fatal("loose deadline should pick the cheap machine for I/O-bound work")
	}
	if check(t, r, "io:1.05:xlarge") != 1 {
		t.Fatal("tight deadline should pick the premium machine for I/O-bound work")
	}
}

// E12: the optimizer never pays more than naive defaults at the same
// deadline, and usually much less.
func TestE12OptimizerValue(t *testing.T) {
	r := results(t)["E12"]
	for k, v := range r.Checks {
		if strings.HasPrefix(k, "saving:") && v < 1 {
			t.Fatalf("%s: optimizer worse than naive (saving %v)", k, v)
		}
	}
}

// The optimizer's searches behind E10-E12 count the jobs of their candidates
// that no split fits in a slot's memory share; each runs on its
// smallest-footprint split instead. They come from the sweep's cap of 8
// tasks per slot, which keeps small clusters off the fine splits that would
// fit (ROADMAP item 3a decides what to do about them).
func TestMemFallbacksPinned(t *testing.T) {
	for id, want := range map[string]int64{"E10": 608, "E11": 36, "E12": 0} {
		s := NewSuite(42)
		st := opt.NewSearchTrace()
		s.Search = st
		if _, err := s.RunOneFormat(id, io.Discard, "text"); err != nil {
			t.Fatal(err)
		}
		if got := st.CounterValue(opt.CounterMemFallbacks); got != want {
			t.Errorf("%s: %d jobs fit no split, want %d", id, got, want)
		}
	}
}

func TestRunOneUnknown(t *testing.T) {
	s := NewSuite(1)
	if _, err := s.RunOneFormat("E99", io.Discard, "text"); err == nil {
		t.Fatal("want unknown-experiment error")
	}
}

func TestTablesRender(t *testing.T) {
	for id, r := range results(t) {
		var sb strings.Builder
		r.Table.Render(&sb)
		out := sb.String()
		if !strings.Contains(out, id) || len(r.Table.Rows) == 0 {
			t.Fatalf("%s: bad render or empty table", id)
		}
	}
}

// E13: chain reordering delivers large speedups on skewed chains.
func TestE13ReorderValue(t *testing.T) {
	r := results(t)["E13"]
	if sp := check(t, r, "speedup:50000x64x50000x16"); sp < 3 {
		t.Fatalf("reordering speedup %v below 3 on the skewed chain", sp)
	}
	for k, v := range r.Checks {
		if strings.HasPrefix(k, "speedup:") && v < 1 {
			t.Fatalf("%s: reordering made things worse (%v)", k, v)
		}
	}
}

// E14: fusion reduces job counts and never hurts; the epilogue case
// shows a clear win.
func TestE14FusionValue(t *testing.T) {
	r := results(t)["E14"]
	for _, m := range []string{"20000", "80000"} {
		if check(t, r, "fusedJobs:"+m) >= check(t, r, "unfusedJobs:"+m) {
			t.Fatal("fusion should reduce job count")
		}
		if sp := check(t, r, "speedup:"+m); sp < 1 {
			t.Fatalf("fusion hurt GNMF at m=%s: %v", m, sp)
		}
	}
	if sp := check(t, r, "speedup:epilogue"); sp < 1.3 {
		t.Fatalf("epilogue fusion speedup %v below 1.3", sp)
	}
}

// E15: overlap helps branching programs, never hurts chains.
func TestE15OverlapValue(t *testing.T) {
	r := results(t)["E15"]
	if sp := check(t, r, "speedup:two-branch"); sp < 1.2 {
		t.Fatalf("overlap speedup %v below 1.2 on independent jobs", sp)
	}
	if sp := check(t, r, "speedup:rsvd"); sp < 0.99 {
		t.Fatalf("overlap hurt a dependent chain: %v", sp)
	}
}

// E16: masked multiplies get cheaper as the pattern gets sparser.
func TestE16MaskedValue(t *testing.T) {
	r := results(t)["E16"]
	s001 := check(t, r, "speedup:0.001")
	s02 := check(t, r, "speedup:0.2")
	if s001 < 3 {
		t.Fatalf("masked speedup %v below 3 at 0.1%% density", s001)
	}
	if s02 >= s001 {
		t.Fatal("masked advantage should shrink as density grows")
	}
	if s02 < 1 {
		t.Fatalf("masked multiply worse than full even at 20%% density: %v", s02)
	}
}

// E17: higher bids raise completion probability; a qualifying bid beats
// the on-demand bill, hour-rounded and per second.
func TestE17SpotValue(t *testing.T) {
	r := results(t)["E17"]
	if check(t, r, "met") != 1 {
		t.Fatal("no bid met the 90% completion target")
	}
	if check(t, r, "lowProb") > check(t, r, "highProb") {
		t.Fatal("completion probability should rise with the bid")
	}
	if check(t, r, "bestCost") >= check(t, r, "onDemand") {
		t.Fatalf("spot cost %v not below on-demand %v",
			r.Checks["bestCost"], r.Checks["onDemand"])
	}
	if check(t, r, "bestCost") >= check(t, r, "onDemandLinear") {
		t.Fatalf("spot cost %v not below the per-second on-demand bill %v",
			r.Checks["bestCost"], r.Checks["onDemandLinear"])
	}
}

// E18: locality grows with replication; oversubscribed racks never help.
func TestE18Locality(t *testing.T) {
	r := results(t)["E18"]
	if _, bad := r.Checks["localityNonMonotone"]; bad {
		t.Fatal("node-local fraction should grow with replication")
	}
	if check(t, r, "local:r6") <= check(t, r, "local:r1") {
		t.Fatal("replication 6 should beat replication 1 on locality")
	}
	if check(t, r, "racked") < check(t, r, "flat3")*0.99 {
		t.Fatal("a penalized topology should not be faster than a flat one")
	}
}

// E19: speculation never hurts and wins under heavy noise.
func TestE19Speculation(t *testing.T) {
	r := results(t)["E19"]
	for _, n := range []string{"0.05", "0.2", "0.6"} {
		if imp := check(t, r, "improvement:"+n); imp < 0.999 {
			t.Fatalf("speculation hurt at noise %s: %v", n, imp)
		}
	}
	if check(t, r, "improvement:0.6") <= 1.0 && check(t, r, "wins:0.6") == 0 {
		t.Fatal("heavy noise should trigger speculation wins")
	}
}

// E20: node deaths below the replication factor never lose data; time
// degrades roughly with lost capacity.
func TestE20FaultRecovery(t *testing.T) {
	r := results(t)["E20"]
	for _, k := range []string{"0", "1", "2", "4"} {
		if check(t, r, "completed:"+k) != 1 {
			t.Fatalf("run with %s dead nodes did not complete", k)
		}
	}
	if check(t, r, "rerepl:2") <= 0 {
		t.Fatal("killing nodes should trigger re-replication traffic")
	}
	if check(t, r, "slowdown:4") < 1.0 {
		t.Fatal("losing a quarter of the cluster should not speed things up")
	}
	if check(t, r, "midrun:crashes") != 1 {
		t.Fatal("mid-run crash was not delivered")
	}
	if check(t, r, "midrun:rerepl") <= 0 {
		t.Fatal("mid-run crash should trigger re-replication traffic")
	}
	if check(t, r, "midrun:slowdown") <= 1.0 {
		t.Fatal("losing a node mid-run should cost time")
	}
	if check(t, r, "bitident") != 1 {
		t.Fatal("chaos run results diverged from the fault-free oracle")
	}
}

// E21: predicted percentiles track the empirical run distribution; the
// confidence premium is bounded.
func TestE21Distribution(t *testing.T) {
	r := results(t)["E21"]
	if check(t, r, "p50rel") > 0.10 {
		t.Fatalf("median prediction error %v above 10%%", r.Checks["p50rel"])
	}
	if check(t, r, "p95rel") > 0.15 {
		t.Fatalf("p95 prediction error %v above 15%%", r.Checks["p95rel"])
	}
	if prem, ok := r.Checks["confPremium"]; ok && prem < 1 {
		t.Fatalf("confidence mode cheaper than point mode: %v", prem)
	}
}

func TestRenderFormats(t *testing.T) {
	r := results(t)["E01"]
	var md, csvOut strings.Builder
	if err := r.Table.RenderAs(&md, "markdown"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| type |") && !strings.Contains(md.String(), "| type ") {
		t.Fatalf("markdown header missing:\n%s", md.String())
	}
	if err := r.Table.RenderAs(&csvOut, "csv"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvOut.String()), "\n")
	if len(lines) != len(r.Table.Rows)+1 {
		t.Fatalf("csv line count: %d", len(lines))
	}
	if err := r.Table.RenderAs(io.Discard, "yaml"); err == nil {
		t.Fatal("want unknown-format error")
	}
}

// E22: tile caching never hurts and wins on iterative re-reads.
func TestE22TileCache(t *testing.T) {
	r := results(t)["E22"]
	if check(t, r, "cacheGB:0") != 0 {
		t.Fatal("cache traffic with caching off")
	}
	if check(t, r, "cacheGB:0.6") <= 0 {
		t.Fatal("no cache hits at fraction 0.6")
	}
	if sp := check(t, r, "speedup:0.6"); sp < 1.02 {
		t.Fatalf("caching speedup %v too small", sp)
	}
}

// TestCommittedResultsMatch pins results/experiments.{txt,md} to what the
// generators print at seed 42 (`cumulon-bench -q`, `-format markdown`): a
// generator change that moves a table must regenerate the files with it.
func TestCommittedResultsMatch(t *testing.T) {
	res := results(t)
	for _, f := range []struct{ format, path string }{
		{"text", "../../results/experiments.txt"},
		{"markdown", "../../results/experiments.md"},
	} {
		var got bytes.Buffer
		for _, e := range All() {
			if err := res[e.ID].Table.RenderAs(&got, f.format); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from the suite's %s output; regenerate it with `go run ./cmd/cumulon-bench -q`", f.path, f.format)
		}
	}
}
