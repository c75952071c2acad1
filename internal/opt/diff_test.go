package opt_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cumulon/internal/cloud"
	"cumulon/internal/model"
	"cumulon/internal/opt"
	"cumulon/internal/plan"
	"cumulon/internal/sim"
	"cumulon/internal/workloads"
)

// The reference search: the optimizer as it ran before a search derived
// each (job, split) profile once. Every candidate compiles a fresh plan,
// and every prediction enumerates plan.TaskProfiles and prices each task on
// its own — no plan reuse, no profile memo, no work classes. The search
// under test must reproduce its numbers bit for bit.

type refPredictor struct {
	m       *model.TaskModel
	cl      cloud.Cluster
	repl    int
	startup float64
}

func (p refPredictor) taskSeconds(w plan.TaskWork) float64 {
	disk, net := p.diskNet(w)
	return p.m.Predict(w.Flops, disk, net)
}

func (p refPredictor) diskNet(w plan.TaskWork) (disk, net int64) {
	r := p.repl
	if r > p.cl.Nodes {
		r = p.cl.Nodes
	}
	lf := float64(r)/float64(p.cl.Nodes) + 0.1
	if lf > 1 {
		lf = 1
	}
	local := int64(float64(w.ReadBytes) * lf)
	return local + w.WriteBytes, w.ReadBytes - local + w.WriteBytes*int64(r-1)
}

// listSchedule is greedy earliest-free-slot scheduling, lowest slot on
// ties; scale draws each task's multiplicative residual.
func (p refPredictor) listSchedule(phase []plan.TaskWork, scale func() float64) float64 {
	free := make([]float64, p.cl.TotalSlots())
	end := 0.0
	for _, w := range phase {
		best := 0
		for i := range free {
			if free[i] < free[best] {
				best = i
			}
		}
		free[best] += p.taskSeconds(w) * scale()
		if free[best] > end {
			end = free[best]
		}
	}
	return end
}

func (p refPredictor) coarsePhase(phase []plan.TaskWork) float64 {
	var total, maxDur float64
	for _, w := range phase {
		d := p.taskSeconds(w)
		total += d
		maxDur = math.Max(maxDur, d)
	}
	n := float64(len(phase))
	return math.Max(math.Ceil(n/float64(p.cl.TotalSlots()))*total/n, maxDur)
}

func (p refPredictor) predictJob(j *plan.Job, coarse bool) float64 {
	total := p.startup
	for _, phase := range plan.TaskProfiles(j) {
		if coarse {
			total += p.coarsePhase(phase)
		} else {
			total += p.listSchedule(phase, func() float64 { return 1 })
		}
	}
	return total
}

// optimizeSplits gives every job its best coarse-predicted split whose
// largest task, read plus written bytes, fits the memory bound (the
// smallest-footprint split when none does), and returns how many jobs fell
// back.
func (p refPredictor) optimizeSplits(pl *plan.Plan, memPerSlot int64) int64 {
	maxTasks := 8 * p.cl.TotalSlots()
	if maxTasks > 4096 {
		maxTasks = 4096
	}
	var fallbacks int64
	for _, j := range pl.Jobs {
		var best, fallback plan.Split
		bestTime, bestMem := math.Inf(1), int64(math.MaxInt64)
		for _, s := range plan.AppendSplitCandidates(nil, j, maxTasks) {
			j.Split = s
			var mem int64
			for _, phase := range plan.TaskProfiles(j) {
				for _, w := range phase {
					mem = max(mem, w.ReadBytes+w.WriteBytes)
				}
			}
			if mem < bestMem {
				bestMem, fallback = mem, s
			}
			if mem > memPerSlot {
				continue
			}
			if t := p.predictJob(j, true); t < bestTime {
				bestTime, best = t, s
			}
		}
		if math.IsInf(bestTime, 1) {
			best = fallback
			fallbacks++
		}
		j.Split = best
	}
	return fallbacks
}

func (p refPredictor) predictPlan(pl *plan.Plan) float64 {
	var total float64
	for _, j := range pl.Jobs {
		total += p.predictJob(j, false)
	}
	return total
}

func (p refPredictor) terms(pl *plan.Plan) sim.Terms {
	slots := float64(p.cl.TotalSlots())
	var t sim.Terms
	for _, j := range pl.Jobs {
		t.StartupSec += p.startup
		for _, phase := range plan.TaskProfiles(j) {
			for _, w := range phase {
				disk, net := p.diskNet(w)
				b0, fl, dk, nt := p.m.Terms(w.Flops, disk, net)
				t.StartupSec += b0 / slots
				t.ComputeSec += fl / slots
				t.LocalSec += dk / slots
				t.RemoteSec += nt / slots
			}
		}
	}
	return t
}

func (p refPredictor) quantile(pl *plan.Plan, trials int, seed int64, q float64) float64 {
	rng := rand.New(rand.NewSource(seed))
	samples := make([]float64, trials)
	for t := range samples {
		for _, j := range pl.Jobs {
			samples[t] += p.startup
			for _, phase := range plan.TaskProfiles(j) {
				samples[t] += p.listSchedule(phase, func() float64 { return p.m.SampleResidual(rng.Float64()) })
			}
		}
	}
	sort.Float64s(samples)
	i := int(q * float64(trials))
	if i >= trials {
		i = trials - 1
	}
	return samples[i]
}

// refSearch drives the reference over the request's grid, recording into
// its own trace exactly what a search records.
type refSearch struct {
	o      *opt.Optimizer
	req    opt.Request
	trace  *opt.SearchTrace
	seen   map[string]bool
	t      *testing.T
	trials int
	seed   int64
}

func (r *refSearch) modelFor(mt cloud.MachineType, slots int) *model.TaskModel {
	key := fmt.Sprintf("%s/%d", mt.Name, slots)
	if r.seen[key] {
		r.trace.Count(opt.CounterModelCacheHits, 1)
	} else {
		r.trace.Count(opt.CounterModelCacheMisses, 1)
		r.seen[key] = true
	}
	tm, err := r.o.ModelFor(mt, slots)
	if err != nil {
		r.t.Fatal(err)
	}
	return tm
}

func (r *refSearch) compile(ts int) *plan.Plan {
	cfg := r.req.PlanCfg
	cfg.TileSize = ts
	pl, err := plan.Compile(r.req.Program, cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	return pl
}

func (r *refSearch) enumerate() []opt.Deployment {
	var out []opt.Deployment
	for _, mt := range r.req.Machines {
		// Slots sweep 1, half the cores, the cores and 2x oversubscription.
		tried := map[int]bool{0: true}
		for _, slots := range []int{1, mt.Cores / 2, mt.Cores, 2 * mt.Cores} {
			if tried[slots] {
				continue
			}
			tried[slots] = true
			tm := r.modelFor(mt, slots)
			for _, nodes := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64} {
				if nodes > r.req.MaxNodes {
					break
				}
				cluster, err := cloud.NewCluster(mt, nodes, slots)
				if err != nil {
					r.t.Fatal(err)
				}
				for _, ts := range r.req.TileSizes {
					pl := r.compile(ts)
					if rw := pl.Rewrites; rw != nil {
						r.trace.Count(opt.CounterCSEChains, int64(rw.Chains()))
						r.trace.Count(opt.CounterCSEFlops, rw.FlopsSaved())
					}
					p := refPredictor{m: tm, cl: cluster, repl: 3, startup: 6}
					r.trace.Count(opt.CounterMemFallbacks, p.optimizeSplits(pl, int64(mt.MemoryGB*1e9*0.7/float64(slots))))
					secs := p.predictPlan(pl)
					splits := map[int]plan.Split{}
					for _, j := range pl.Jobs {
						splits[j.ID] = j.Split
					}
					d := opt.Deployment{
						Cluster: cluster, TileSize: ts, Splits: splits, PredSeconds: secs,
						Cost: cloud.Cost(mt, nodes, secs), CostLinear: cloud.CostLinear(mt, nodes, secs),
					}
					r.trace.Candidate(opt.Candidate{Seq: len(out), Deployment: d, Terms: p.terms(pl), DominatedBy: -1})
					out = append(out, d)
				}
			}
		}
	}
	return out
}

func (r *refSearch) confQuantile(d opt.Deployment) float64 {
	pl := r.compile(d.TileSize)
	if err := d.Apply(pl); err != nil {
		r.t.Fatal(err)
	}
	p := refPredictor{m: r.modelFor(d.Cluster.Type, d.Cluster.Slots), cl: d.Cluster, repl: 3, startup: 6}
	r.trace.Count(opt.CounterSimTrials, int64(r.trials))
	return p.quantile(pl, r.trials, r.seed+int64(d.Cluster.Nodes), r.req.Confidence)
}

func traceJSON(t *testing.T, tr *opt.SearchTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func diffMachines(t *testing.T) []cloud.MachineType {
	t.Helper()
	var out []cloud.MachineType
	for _, name := range []string{"m1.small", "c1.medium", "m1.xlarge"} {
		mt, err := cloud.TypeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, mt)
	}
	return out
}

func diffWorkloads() []workloads.Workload {
	return []workloads.Workload{
		workloads.GNMF(60000, 30000, 10, 1, 0.01),
		workloads.GNMFKL(30000, 20000, 10, 1, 0.02),
		workloads.RSVD(32768, 16384, 128, 1),
		workloads.PageRank(100000, 2, 0.001, 0.85),
	}
}

// Candidates and the exported search trace must be byte-identical to the
// reference's, for deadline, budget and confidence-constrained searches
// with a tile-size sweep. The reference recomputes every number in the
// trace; the discrete decisions over those numbers (prune reasons, the
// winner) are the untouched decision code's and are replayed onto it.
func TestSearchMatchesPerTaskReference(t *testing.T) {
	const seed, trials = 5, 12
	for _, w := range diffWorkloads() {
		base := opt.Request{
			Program:   w.Prog,
			PlanCfg:   plan.Config{TileSize: 2048, Densities: w.Densities},
			TileSizes: []int{1024, 2048},
			Machines:  diffMachines(t),
			MaxNodes:  12,
			Trials:    trials,
		}
		grid, err := opt.New(seed).Enumerate(base)
		if err != nil {
			t.Fatal(err)
		}
		// Constraints at the grid's medians leave feasible and infeasible
		// candidates on both sides, and quantiles straddling the deadline.
		secs, costs := make([]float64, len(grid)), make([]float64, len(grid))
		for i, d := range grid {
			secs[i], costs[i] = d.PredSeconds, d.Cost
		}
		sort.Float64s(secs)
		sort.Float64s(costs)
		deadline, budget := secs[len(secs)/2], costs[len(costs)/2]

		for _, mode := range []string{"deadline", "budget", "confidence"} {
			req := base
			tr := opt.NewSearchTrace()
			req.Search = tr
			ref := &refSearch{o: opt.New(seed), trace: opt.NewSearchTrace(), seen: map[string]bool{}, t: t, trials: trials, seed: seed}
			var res *opt.Result
			switch mode {
			case "deadline", "confidence":
				req.DeadlineSec = deadline
				if mode == "confidence" {
					req.Confidence = 0.9
				}
				ref.req = req
				ref.trace.Begin("min-cost-deadline", deadline, req.Confidence)
				res, err = opt.New(seed).MinCostForDeadline(req)
			case "budget":
				req.BudgetDollars = budget
				ref.req = req
				ref.trace.Begin("min-time-budget", budget, 0)
				res, err = opt.New(seed).MinTimeForBudget(req)
			}
			if err != nil {
				t.Fatal(err)
			}
			ref.trace.Count(opt.CounterSearches, 1)
			want := ref.enumerate()

			got, _ := json.Marshal(res.Candidates)
			wantJSON, _ := json.Marshal(want)
			if !bytes.Equal(got, wantJSON) {
				t.Fatalf("%s %s: candidates differ from the per-task reference", w.Name, mode)
			}
			rec, _ := tr.Last()
			simulated := 0
			for i, c := range rec.Candidates {
				q := 0.0
				if c.QuantileSec > 0 {
					q = ref.confQuantile(want[i])
					simulated++
				}
				ref.trace.Prune(i, c.Pruned, c.DominatedBy, q)
			}
			if rec.WinnerSeq >= 0 {
				ref.trace.Winner(rec.WinnerSeq, rec.Met)
			}
			if mode == "confidence" && simulated == 0 {
				t.Fatalf("%s: confident search simulated no candidate", w.Name)
			}
			if !bytes.Equal(traceJSON(t, tr), traceJSON(t, ref.trace)) {
				t.Fatalf("%s %s: search trace differs from the per-task reference", w.Name, mode)
			}
		}
	}
}

// Two searches at once on one Optimizer, and predictors at once over
// Clones of one compiled plan: nothing a search memoizes may hang off
// state that concurrent executions share (run under -race).
func TestConcurrentSearchesAndClones(t *testing.T) {
	w := workloads.GNMF(40000, 20000, 10, 1, 0.02)
	req := opt.Request{
		Program:     w.Prog,
		PlanCfg:     plan.Config{TileSize: 2048, Densities: w.Densities},
		Machines:    diffMachines(t),
		MaxNodes:    8,
		DeadlineSec: 3600,
		Confidence:  0.9,
		Trials:      8,
	}
	o := opt.New(1)
	want, err := o.MinCostForDeadline(req)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want.Candidates)

	tmpl, err := plan.Compile(w.Prog, req.PlanCfg)
	if err != nil {
		t.Fatal(err)
	}
	mt := req.Machines[1]
	tm, err := o.ModelFor(mt, mt.Cores)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cloud.NewCluster(mt, 8, mt.Cores)
	if err != nil {
		t.Fatal(err)
	}
	predict := func() float64 {
		pl, p := tmpl.Clone(), sim.New(tm, cl)
		p.OptimizeSplits(pl, 0)
		tr := p.PlanTerms(pl)
		return p.PredictPlan(pl) + p.PredictPlanQuantile(pl, 5, 1, 0.9) + tr.ComputeSec + tr.LocalSec + tr.RackSec + tr.RemoteSec + tr.StartupSec
	}
	wantPred := predict()

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, err := o.MinCostForDeadline(req)
			if err != nil {
				t.Error(err)
				return
			}
			if got, _ := json.Marshal(res.Candidates); !bytes.Equal(got, wantJSON) || res.Best.String() != want.Best.String() {
				t.Errorf("concurrent search diverged: best %v, want %v", res.Best, want.Best)
			}
		}()
		go func() {
			defer wg.Done()
			if got := predict(); got != wantPred {
				t.Errorf("concurrent prediction over a clone = %v, want %v", got, wantPred)
			}
		}()
	}
	wg.Wait()
}
