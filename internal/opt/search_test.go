package opt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cumulon/internal/cloud"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
)

// The disabled recorder must be free: search hot loops call it
// unconditionally, so any allocation here taxes every unobserved search.
func TestNopSearchZeroAllocs(t *testing.T) {
	rec := searchOrNop(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		if rec.Enabled() {
			t.Fatal("nop recorder claims to be enabled")
		}
		rec.Begin("min-cost-deadline", 3600, 0.9)
		rec.Candidate(Candidate{})
		rec.Prune(0, PruneDominated, 1, 0)
		rec.Winner(0, true)
		rec.Count(CounterSimTrials, 30)
	})
	if allocs != 0 {
		t.Fatalf("nop SearchRecorder allocates: %v allocs/op", allocs)
	}
}

// BenchmarkNopSearch is CI's 0 allocs/op guard for the disabled recorder
// (run with -benchmem; see .github/workflows/ci.yml).
func BenchmarkNopSearch(b *testing.B) {
	rec := searchOrNop(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rec.Enabled() {
			b.Fatal("enabled")
		}
		rec.Candidate(Candidate{Seq: i})
		rec.Count(CounterModelCacheHits, 1)
	}
}

func tracedRequest(t *testing.T) (Request, *SearchTrace) {
	req := request(t)
	st := NewSearchTrace()
	req.Search = st
	return req, st
}

// One constrained search must leave a complete record: every candidate
// present in evaluation order with its term breakdown, every loser with a
// typed prune reason, the winner marked, and the counters bumped.
func TestSearchTraceRecordsSearch(t *testing.T) {
	o := New(1)
	req, st := tracedRequest(t)
	req.DeadlineSec = 2 * 3600
	res, err := o.MinCostForDeadline(req)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := st.Last()
	if !ok {
		t.Fatal("no search recorded")
	}
	if s.Objective != "min-cost-deadline" || s.Constraint != req.DeadlineSec {
		t.Fatalf("bad search header: %+v", s)
	}
	if len(s.Candidates) != len(res.Candidates) {
		t.Fatalf("recorded %d candidates, result has %d", len(s.Candidates), len(res.Candidates))
	}
	if !s.Met || s.WinnerSeq < 0 {
		t.Fatalf("search should have met the deadline: %+v", s)
	}
	win := s.Candidates[s.WinnerSeq]
	if !win.Winner || win.Pruned != PruneNone {
		t.Fatalf("winner not marked cleanly: %+v", win)
	}
	if win.Deployment.Cluster.String() != res.Best.Cluster.String() {
		t.Fatalf("recorded winner %v != result best %v", win.Deployment, *res.Best)
	}
	for i, c := range s.Candidates {
		if c.Seq != i {
			t.Fatalf("candidate %d has seq %d", i, c.Seq)
		}
		if c.Terms.Total() <= 0 {
			t.Fatalf("candidate %d has no term breakdown: %+v", i, c.Terms)
		}
		if i == s.WinnerSeq {
			continue
		}
		if c.Pruned == PruneNone {
			t.Fatalf("loser %d has no prune reason", i)
		}
		if c.Pruned == PruneDominated {
			if c.DominatedBy < 0 || c.DominatedBy >= len(s.Candidates) {
				t.Fatalf("dominated candidate %d has bad dominator %d", i, c.DominatedBy)
			}
			dom := s.Candidates[c.DominatedBy].Deployment
			d := c.Deployment
			if dom.PredSeconds > d.PredSeconds || dom.Cost > d.Cost {
				t.Fatalf("candidate %d not actually dominated by %d", i, c.DominatedBy)
			}
		}
	}
	if got := st.CounterValue(CounterSearches); got != 1 {
		t.Fatalf("searches counter = %d, want 1", got)
	}
	if st.CounterValue(CounterModelCacheMisses) == 0 {
		t.Fatal("no model calibrations counted")
	}
	if st.CounterValue(CounterModelCacheHits) != 0 {
		t.Fatal("fresh optimizer should have no cache hits in its first search")
	}

	// DominatedBy on the Result mirrors the trace and sizes with Candidates.
	if len(res.DominatedBy) != len(res.Candidates) {
		t.Fatalf("DominatedBy len %d != candidates %d", len(res.DominatedBy), len(res.Candidates))
	}
	dominated := 0
	for _, d := range res.DominatedBy {
		if d >= 0 {
			dominated++
		}
	}
	if dominated+len(res.Frontier) != len(res.Candidates) {
		t.Fatalf("dominated %d + frontier %d != candidates %d",
			dominated, len(res.Frontier), len(res.Candidates))
	}
}

// A confidence-constrained search must record simulated quantiles on the
// candidates it examined and count the Monte Carlo trials it spent.
func TestSearchTraceConfidence(t *testing.T) {
	o := New(1)
	req, st := tracedRequest(t)
	req.DeadlineSec = 2 * 3600
	req.Confidence = 0.9
	req.Trials = 8
	res, err := o.MinCostForDeadline(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best deployment")
	}
	if res.Met {
		if res.Best.Confidence != 0.9 || res.Best.QuantileSeconds <= 0 {
			t.Fatalf("winner missing confidence promise: %+v", res.Best)
		}
	}
	if st.CounterValue(CounterSimTrials) == 0 {
		t.Fatal("no sim trials counted")
	}
	s, _ := st.Last()
	quantiled := 0
	for _, c := range s.Candidates {
		if c.QuantileSec > 0 {
			quantiled++
		}
		if c.Pruned == PruneConfidence && c.QuantileSec <= s.Constraint {
			t.Fatalf("confidence-rejected candidate with passing quantile: %+v", c)
		}
	}
	if quantiled == 0 {
		t.Fatal("no candidate carries a simulated quantile")
	}
}

// The budget search records symmetrically, with over-budget prunes.
func TestSearchTraceBudget(t *testing.T) {
	o := New(1)
	req, st := tracedRequest(t)
	req.BudgetDollars = 5
	res, err := o.MinTimeForBudget(req)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := st.Last()
	if s.Objective != "min-time-budget" || s.Constraint != 5 {
		t.Fatalf("bad search header: %+v", s)
	}
	over := 0
	for _, c := range s.Candidates {
		if c.Pruned == PruneOverBudget {
			over++
			if c.Deployment.Cost <= 5 {
				t.Fatalf("over-budget prune on affordable candidate: %+v", c.Deployment)
			}
		}
	}
	if res.Met && over == 0 {
		t.Fatal("expected some over-budget prunes in a constrained search")
	}
}

// Two same-seed searches must export byte-identical traces, and the
// exported trace must replay — by re-applying the decision rule to the
// recorded candidates alone — to the recorded winner.
func TestSearchTraceDeterminismAndReplay(t *testing.T) {
	run := func() ([]byte, *Result) {
		o := New(1)
		req, st := tracedRequest(t)
		req.DeadlineSec = 2 * 3600
		res, err := o.MinCostForDeadline(req)
		if err != nil {
			t.Fatal(err)
		}
		req.BudgetDollars = 5
		if _, err := o.MinTimeForBudget(req); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := st.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res
	}
	a, res := run()
	b, _ := run()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed searches exported different traces")
	}

	winners, err := Replay(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(winners) != 2 {
		t.Fatalf("replayed %d searches, want 2", len(winners))
	}
	for _, w := range winners {
		if w.Seq != w.RecordedSeq || w.Met != w.RecordedMet {
			t.Fatalf("replay disagrees with recorded outcome: %+v", w)
		}
	}
	// The replayed deadline winner must be the deployment the search chose.
	want := fmt.Sprintf("%d x %s (%d slots), tile %d",
		res.Best.Cluster.Nodes, res.Best.Cluster.Type.Name, res.Best.Cluster.Slots, res.Best.TileSize)
	if winners[0].Deployment != want {
		t.Fatalf("replayed winner %q, want %q", winners[0].Deployment, want)
	}

	// CSV export parses row-per-candidate and is deterministic too.
	st := NewSearchTrace()
	var csvBuf bytes.Buffer
	if err := st.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvBuf.String(), "search,objective,") {
		t.Fatalf("csv header missing: %q", csvBuf.String())
	}
}

// The EXPLAIN acceptance criterion: on a GNMF program the report names
// the chosen deployment and at least two rejected rivals, each with a
// typed prune reason and per-term time and cost deltas.
func TestExplainReportGNMF(t *testing.T) {
	prog, err := lang.Parse(`
input V 40000 20000 sparse
input W 40000 10
input H 10 20000
H = H .* (W' * V) ./ ((W' * W) * H)
W = W .* (V * H') ./ (W * (H * H'))
output W
output H
`)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := cloud.TypeByName("m1.small")
	big, _ := cloud.TypeByName("c1.xlarge")
	req := Request{
		Program:     prog,
		PlanCfg:     plan.Config{TileSize: 4096, Densities: map[string]float64{"V": 0.02}},
		Machines:    []cloud.MachineType{small, big},
		MaxNodes:    16,
		DeadlineSec: 4 * 3600,
	}
	st := NewSearchTrace()
	req.Search = st
	o := New(1)
	res, err := o.MinCostForDeadline(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Explain(&buf, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "EXPLAIN min cost s.t. deadline") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, deploymentLabel(*res.Best)) {
		t.Fatalf("report does not name the chosen deployment %q:\n%s", deploymentLabel(*res.Best), out)
	}
	rivals := strings.Count(out, "terms delta:")
	if rivals < 2 {
		t.Fatalf("want >= 2 rivals with term deltas, got %d:\n%s", rivals, out)
	}
	for _, needle := range []string{"winner:", "rivals", "time ", "cost ", "pruned:"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("missing %q in report:\n%s", needle, out)
		}
	}
	// Every rival line carries a typed reason in brackets.
	reasons := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "[") && strings.Contains(line, "]") {
			reasons++
		}
	}
	if reasons < 2 {
		t.Fatalf("want >= 2 bracketed prune reasons, got %d:\n%s", reasons, out)
	}
}

// Pareto tie handling: equal time with different cost keeps the cheaper;
// exact (time, cost) ties keep the earliest-evaluated candidate.
func TestParetoTies(t *testing.T) {
	mk := func(sec, cost float64) Deployment {
		return Deployment{PredSeconds: sec, Cost: cost}
	}
	t.Run("equal time different cost", func(t *testing.T) {
		cands := []Deployment{mk(100, 3), mk(100, 2), mk(50, 5)}
		frontier, dom := paretoSplit(cands)
		if len(frontier) != 2 {
			t.Fatalf("frontier = %+v, want 2 members", frontier)
		}
		if dom[0] != 1 {
			t.Fatalf("costlier same-time candidate should be dominated by index 1, got %d", dom[0])
		}
		if dom[1] != -1 || dom[2] != -1 {
			t.Fatalf("frontier members marked dominated: %v", dom)
		}
	})
	t.Run("exact tie keeps earliest", func(t *testing.T) {
		cands := []Deployment{mk(100, 2), mk(100, 2), mk(100, 2)}
		frontier, dom := paretoSplit(cands)
		if len(frontier) != 1 {
			t.Fatalf("frontier = %+v, want 1 member", frontier)
		}
		if dom[0] != -1 || dom[1] != 0 || dom[2] != 0 {
			t.Fatalf("exact ties should defer to the earliest candidate: %v", dom)
		}
	})
	t.Run("strict dominance", func(t *testing.T) {
		cands := []Deployment{mk(50, 1), mk(100, 2)}
		_, dom := paretoSplit(cands)
		if dom[1] != 0 {
			t.Fatalf("slower-and-costlier candidate not dominated: %v", dom)
		}
	})
}

// Deployment serializes its full decision — tile size and confidence
// promise included — and round-trips through encoding/json.
func TestDeploymentJSONRoundTrip(t *testing.T) {
	mt, _ := cloud.TypeByName("c1.medium")
	cluster, err := cloud.NewCluster(mt, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := Deployment{
		Cluster:         cluster,
		TileSize:        2048,
		Splits:          map[int]plan.Split{1: {CI: 4, CJ: 4, CK: 2}},
		PredSeconds:     2870,
		Cost:            2.32,
		CostLinear:      1.91,
		Confidence:      0.9,
		QuantileSeconds: 3105,
	}
	data, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"tile_size":2048`, `"confidence":0.9`, `"quantile_seconds":3105`} {
		if !strings.Contains(string(data), field) {
			t.Fatalf("missing %s in %s", field, data)
		}
	}
	var back Deployment
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip changed deployment:\n%+v\n%+v", d, back)
	}
	s := d.String()
	for _, needle := range []string{"tile 2048", "p90", "3105s"} {
		if !strings.Contains(s, needle) {
			t.Fatalf("String() missing %q: %s", needle, s)
		}
	}
}

// The frontier SVG is well formed and shows candidates, the staircase and
// the winner ring.
func TestFrontierSVG(t *testing.T) {
	o := New(1)
	req, st := tracedRequest(t)
	req.DeadlineSec = 2 * 3600
	if _, err := o.MinCostForDeadline(req); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteFrontierSVG(&buf); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	for _, needle := range []string{"<svg", "</svg>", "<circle", "<polyline", `stroke="#cc3333"`} {
		if !strings.Contains(svg, needle) {
			t.Fatalf("svg missing %q", needle)
		}
	}
}

// Empty traces refuse to explain or render rather than emitting garbage.
func TestEmptyTraceErrors(t *testing.T) {
	st := NewSearchTrace()
	if err := st.Explain(&bytes.Buffer{}, 0); err == nil {
		t.Fatal("Explain on empty trace should error")
	}
	if err := st.WriteFrontierSVG(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteFrontierSVG on empty trace should error")
	}
}

// TestConcurrentColdSearchesMatchSolo: two cold searches running at once on
// one Optimizer, each calibrating its misses through a benchmark suite of
// its own, export byte for byte the trace each exports alone on a fresh
// Optimizer. Their machine sets are disjoint, so neither hits a model the
// other calibrated and the cache counters must match too. CI runs it under
// -race.
func TestConcurrentColdSearchesMatchSolo(t *testing.T) {
	cat := cloud.Catalog()
	var reqs [2]Request
	for i, machines := range [][]cloud.MachineType{cat[:len(cat)/2], cat[len(cat)/2:]} {
		reqs[i] = request(t)
		reqs[i].Machines, reqs[i].DeadlineSec = machines, 2*3600
	}
	search := func(o *Optimizer, i int) []byte {
		st := NewSearchTrace()
		req := reqs[i]
		req.Search = st
		var buf bytes.Buffer
		if _, err := o.MinCostForDeadline(req); err != nil {
			t.Error(err)
		} else if err := st.WriteJSON(&buf); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	var solo, together [2][]byte
	for i := range reqs {
		solo[i] = search(New(1), i)
	}
	o := New(1)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = search(o, i)
		}()
	}
	wg.Wait()
	for i := range reqs {
		if len(solo[i]) == 0 || !bytes.Equal(together[i], solo[i]) {
			t.Fatalf("search %d: the trace of a concurrent cold search differs from a solo one", i)
		}
	}
}

// TestParallelCalibrationMatchesSerial: a search that calibrates its
// (machine, slots) pairs on helpers beside the candidate sweep exports, at
// compute budgets 2 and 4, exactly the search trace, candidates and cache
// counters it does at budget 1 — cold, and with a seeded subset of the pairs
// already in the model cache — and leaves no goroutine behind. A budget whose
// tokens are all held elsewhere gets the serial search, without waiting.
func TestParallelCalibrationMatchesSerial(t *testing.T) {
	defer linalg.SetParallelism(linalg.SetParallelism(1))
	req := request(t)
	req.Machines, req.MaxNodes, req.DeadlineSec = cloud.Catalog(), 4, 2*3600
	warm := rand.New(rand.NewSource(3))
	var prewarmed [][2]int // (machine index, slots)
	for m, mt := range req.Machines {
		for _, slots := range slotOptions(mt) {
			if warm.Intn(2) == 0 {
				prewarmed = append(prewarmed, [2]int{m, slots})
			}
		}
	}
	type outcome struct {
		trace, cands []byte
		hits, misses int64
	}
	search := func(prewarm bool, heldElsewhere int) outcome {
		for h := 0; h < heldElsewhere; h++ {
			linalg.AcquireToken()
			defer linalg.ReleaseToken()
		}
		o := New(5)
		if prewarm {
			for _, p := range prewarmed {
				if _, err := o.ModelFor(req.Machines[p[0]], p[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := NewSearchTrace()
		r := req
		r.Search = st
		before := runtime.NumGoroutine()
		res, err := o.MinCostForDeadline(r)
		if err != nil {
			t.Fatal(err)
		}
		// Helpers give their tokens back before they finish, and the search
		// waits for them: every token not held elsewhere is free again.
		free := 0
		for linalg.TryAcquireToken() {
			free++
		}
		for h := 0; h < free; h++ {
			linalg.ReleaseToken()
		}
		if held := linalg.Parallelism() - free; held != heldElsewhere {
			t.Fatalf("%d tokens held after the search, want %d", held, heldElsewhere)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the search, %d before", runtime.NumGoroutine(), before)
			}
		}
		var out outcome
		var buf bytes.Buffer
		if err := st.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		out.trace = buf.Bytes()
		if out.cands, err = json.Marshal(res.Candidates); err != nil {
			t.Fatal(err)
		}
		out.hits, out.misses = st.CounterValue(CounterModelCacheHits), st.CounterValue(CounterModelCacheMisses)
		return out
	}
	for _, prewarm := range []bool{false, true} {
		linalg.SetParallelism(1)
		want := search(prewarm, 0)
		if prewarm && want.hits != int64(len(prewarmed)) {
			t.Fatalf("pre-warmed search: %d cache hits, want %d", want.hits, len(prewarmed))
		}
		for _, c := range []struct {
			budget, held int
		}{{2, 0}, {4, 0}, {2, 2}} {
			linalg.SetParallelism(c.budget)
			got := search(prewarm, c.held)
			if !bytes.Equal(got.trace, want.trace) || !bytes.Equal(got.cands, want.cands) {
				t.Fatalf("budget %d (%d held), prewarm %v: the search differs from the serial one", c.budget, c.held, prewarm)
			}
			if got.hits != want.hits || got.misses != want.misses {
				t.Fatalf("budget %d (%d held), prewarm %v: %d hits and %d misses, want %d and %d",
					c.budget, c.held, prewarm, got.hits, got.misses, want.hits, want.misses)
			}
		}
	}
}

// SearchTrace is safe under concurrent recording (exercised with -race in
// CI's scoped race job).
func TestSearchTraceConcurrent(t *testing.T) {
	st := NewSearchTrace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				st.Candidate(Candidate{Seq: i})
				st.Count(CounterSimTrials, 1)
				st.Prune(i, PruneDominated, 0, 0)
				_, _ = st.Last()
			}
		}(g)
	}
	wg.Wait()
	if st.CounterValue(CounterSimTrials) != 400 {
		t.Fatalf("lost counter increments: %d", st.CounterValue(CounterSimTrials))
	}
}
