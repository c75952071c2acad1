// Package opt is Cumulon's cost-based deployment optimizer: given a
// matrix program and a time or money constraint, it searches the joint
// space of
//
//   - physical plan parameters (per-job splits),
//   - configuration settings (task slots per node),
//   - hardware provisioning (machine type and cluster size),
//
// using the calibrated task-time models (package model) and the cluster
// simulator (package sim) to predict completion time, and the provider's
// billing rules (package cloud) to price each candidate. This is the
// paper's core optimization contribution: database-style physical
// optimization extended to provisioning and configuration.
package opt

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cumulon/internal/cloud"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/linalg/tune"
	"cumulon/internal/model"
	"cumulon/internal/plan"
	"cumulon/internal/sim"
)

// Deployment is one fully specified way to run the program: a cluster and
// the per-job splits tuned for it, with predicted time and price. The
// struct marshals to JSON with the full decision — including the tile
// size and, for confidence-constrained searches, the promised quantile —
// and round-trips through encoding/json.
type Deployment struct {
	Cluster cloud.Cluster `json:"cluster"`
	// TileSize is the storage tile size this deployment was planned for
	// (a physical parameter the optimizer may sweep).
	TileSize    int                `json:"tile_size"`
	Splits      map[int]plan.Split `json:"splits"`
	PredSeconds float64            `json:"pred_seconds"`
	// Cost is the billed price (whole instance-hours); CostLinear is the
	// idealized per-second price, reported for tradeoff curves.
	Cost       float64 `json:"cost"`
	CostLinear float64 `json:"cost_linear"`
	// Confidence and QuantileSeconds report the probabilistic promise of
	// a confidence-constrained search: QuantileSeconds is the simulated
	// Confidence-quantile completion time the deadline was checked
	// against. Both are zero for point-estimate searches.
	Confidence      float64 `json:"confidence,omitempty"`
	QuantileSeconds float64 `json:"quantile_seconds,omitempty"`
}

// Apply copies the deployment's splits onto a freshly compiled plan so an
// engine can execute exactly what the optimizer predicted. The plan must
// have been compiled with the deployment's TileSize.
func (d *Deployment) Apply(pl *plan.Plan) error {
	if d.TileSize != 0 && pl.TileSize != d.TileSize {
		return fmt.Errorf("opt: plan tile size %d does not match deployment's %d", pl.TileSize, d.TileSize)
	}
	for _, j := range pl.Jobs {
		s, ok := d.Splits[j.ID]
		if !ok {
			return fmt.Errorf("opt: deployment has no split for job %d", j.ID)
		}
		j.Split = s
	}
	return nil
}

func (d *Deployment) String() string {
	s := d.Cluster.String()
	if d.TileSize != 0 {
		s += fmt.Sprintf(", tile %d", d.TileSize)
	}
	s += fmt.Sprintf(": %.0fs, $%.2f", d.PredSeconds, d.Cost)
	if d.Confidence > 0 {
		s += fmt.Sprintf(" (p%.0f %.0fs)", d.Confidence*100, d.QuantileSeconds)
	}
	return s
}

// Request describes an optimization problem.
type Request struct {
	Program *lang.Program
	PlanCfg plan.Config
	// DeadlineSec bounds completion time (MinCostForDeadline).
	DeadlineSec float64
	// BudgetDollars bounds billed cost (MinTimeForBudget).
	BudgetDollars float64
	// Machines restricts the machine-type catalog (default: full catalog).
	Machines []cloud.MachineType
	// MaxNodes bounds the cluster-size sweep (default 64).
	MaxNodes int
	// TileSizes optionally sweeps the storage tile size as part of the
	// search; empty means use PlanCfg.TileSize only.
	TileSizes []int
	// Replication is the DFS replication factor (default 3).
	Replication int
	// JobStartupSec must match the target engine's (default 6).
	JobStartupSec float64
	// Confidence, when in (0, 1), makes MinCostForDeadline promise the
	// deadline probabilistically: a candidate is feasible only if the
	// Confidence-quantile of its Monte Carlo completion-time distribution
	// meets the deadline, not just its point estimate. Costs extra
	// simulation for the candidates near the frontier.
	Confidence float64
	// Trials is the Monte Carlo sample count for Confidence (default 30).
	Trials int
	// Search receives candidate-level telemetry of the search: every grid
	// point evaluated, its model-term breakdown, why it was pruned, and
	// the winner (see SearchRecorder). nil disables recording at zero
	// cost.
	Search SearchRecorder
}

func (r Request) withDefaults() Request {
	if len(r.Machines) == 0 {
		r.Machines = cloud.Catalog()
	}
	if r.MaxNodes == 0 {
		r.MaxNodes = 64
	}
	if r.Replication == 0 {
		r.Replication = 3
	}
	if r.JobStartupSec == 0 {
		r.JobStartupSec = 6
	}
	// A machine type or tile size listed twice would evaluate its grid
	// points twice.
	r.Machines = firstOf(r.Machines, func(mt cloud.MachineType) string { return mt.Name })
	r.TileSizes = firstOf(r.TileSizes, func(ts int) int { return ts })
	return r
}

// firstOf returns the first element of xs with each key, in order.
func firstOf[T any, K comparable](xs []T, key func(T) K) []T {
	var out []T
	for _, x := range xs {
		if !slices.ContainsFunc(out, func(y T) bool { return key(y) == key(x) }) {
			out = append(out, x)
		}
	}
	return out
}

// Result is the outcome of a search.
type Result struct {
	Best *Deployment
	// Met reports whether the constraint was satisfiable; when false,
	// Best is the closest candidate (fastest or cheapest).
	Met bool
	// Candidates are all evaluated deployments, in evaluation order.
	Candidates []Deployment
	// Frontier is the Pareto-optimal (time, cost) subset, time-ascending.
	Frontier []Deployment
	// DominatedBy maps each candidate (by index into Candidates) to the
	// index of a candidate that Pareto-dominates it, or -1 for frontier
	// members — the counts the pareto filter previously dropped silently.
	DominatedBy []int
}

// Optimizer caches calibrated task-time models across searches (the
// paper's benchmarking phase is per machine type, not per query).
//
// An Optimizer is safe for concurrent use: the model cache is the only
// state shared between searches and it is mutex-guarded, so many
// goroutines (the job server's workers) can run searches on one
// Optimizer and share its calibrations. Each concurrent search should
// supply its own SearchRecorder when it wants telemetry — a shared
// SearchTrace interleaves candidates from concurrent searches.
type Optimizer struct {
	seed int64

	mu      sync.Mutex
	models  map[modelKey]*model.TaskModel
	profile *tune.Profile
}

// New creates an optimizer; seed drives calibration determinism.
func New(seed int64) *Optimizer {
	return &Optimizer{seed: seed, models: map[modelKey]*model.TaskModel{}}
}

// UseKernelProfile attaches a kernel autotuner profile
// (internal/linalg/tune) to every subsequent calibration: the measured
// parallel speedup scales each machine type's effective throughput, so
// search estimates track the tuned kernel tier. Passing nil reverts to
// catalog throughput. Cached models calibrated under a different
// profile are discarded.
func (o *Optimizer) UseKernelProfile(p *tune.Profile) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.profile == p {
		return
	}
	o.profile = p
	o.models = map[modelKey]*model.TaskModel{}
}

// ModelFor returns the (cached) calibrated model for a machine type and
// slot configuration.
func (o *Optimizer) ModelFor(mt cloud.MachineType, slots int) (*model.TaskModel, error) {
	return o.modelFor(mt, slots, NopSearch(), new(model.Suite))
}

// modelFor is ModelFor reporting cache hits and misses to the search
// recorder (the paper's benchmarking phase is the expensive part; the
// hit rate shows the cache amortizing it across the search grid), and
// calibrating a miss through the caller's benchmark suite, which other
// goroutines may be calibrating through too (model.Suite is safe for that).
// Calibration runs outside the lock; concurrent misses on the same key
// may calibrate twice, but both compute the identical seeded model and
// the second write is a no-op overwrite.
func (o *Optimizer) modelFor(mt cloud.MachineType, slots int, rec SearchRecorder, suite *model.Suite) (*model.TaskModel, error) {
	key := modelKey{mt.Name, slots}
	o.mu.Lock()
	if m, ok := o.models[key]; ok {
		o.mu.Unlock()
		rec.Count(CounterModelCacheHits, 1)
		return m, nil
	}
	prof := o.profile
	o.mu.Unlock()
	rec.Count(CounterModelCacheMisses, 1)
	res, err := suite.Calibrate(mt, slots, o.seed, prof)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	// A concurrent UseKernelProfile invalidates this calibration: drop it
	// rather than poisoning the fresh cache.
	if o.profile == prof {
		o.models[key] = res.Model
	}
	o.mu.Unlock()
	return res.Model, nil
}

// modelKey names a cached model: machine type and slots.
type modelKey struct {
	machine string
	slots   int
}

// calibrations are one search's (machine, slots) pairs in enumeration order,
// calibrated on the compute budget beside the candidate sweep the way
// compute's pool backend runs a phase's tasks. The search goroutine holds no
// token. Asked for pair i, it calibrates the lowest pair nobody has started
// (i itself, or another while a helper has i in flight) and waits only when
// there is none. Once its first calibration has recorded the suite, it starts
// a helper per token idle right then; helpers claim pairs in index order and
// give their token back when none is left. At width 1, or with every token
// held, the search is the serial one. Only the search goroutine records.
type calibrations struct {
	o       *Optimizer
	suite   *model.Suite
	pairs   []calPair
	next    atomic.Int64 // pairs below next are claimed
	stopped atomic.Bool
	widened bool // by the search goroutine
	helpers sync.WaitGroup
}

type calPair struct {
	mt     *cloud.MachineType
	slots  int
	cached bool // in the model cache when the search began: a hit
	model  *model.TaskModel
	err    error
	done   chan struct{} // closed once model and err are set
}

// calibrations lists the pairs a search over machines sweeps, taking the
// model cache's as they are when the search begins.
func (o *Optimizer) calibrations(machines []cloud.MachineType, suite *model.Suite) *calibrations {
	c := &calibrations{o: o, suite: suite}
	o.mu.Lock()
	defer o.mu.Unlock()
	for m := range machines {
		for _, slots := range slotOptions(machines[m]) {
			p := calPair{mt: &machines[m], slots: slots, done: make(chan struct{})}
			if p.model, p.cached = o.models[modelKey{machines[m].Name, slots}]; p.cached {
				close(p.done)
			}
			c.pairs = append(c.pairs, p)
		}
	}
	return c
}

// model returns pair i's model. Only the search goroutine calls it, in index
// order.
func (c *calibrations) model(i int, rec SearchRecorder) (*model.TaskModel, error) {
	p := &c.pairs[i]
	counter := CounterModelCacheMisses
	if p.cached {
		counter = CounterModelCacheHits
	}
	rec.Count(counter, 1)
	for {
		select {
		case <-p.done:
			return p.model, p.err
		default:
		}
		// Calibrate i, or another pair while a helper has i in flight.
		j := c.claim()
		if j < 0 {
			<-p.done
			continue
		}
		c.run(j)
		if !c.widened && c.pairs[j].err == nil {
			// The suite is recorded: widen onto the tokens idle right now.
			c.widened = true
			for h := 1; h < linalg.Parallelism() && linalg.TryAcquireToken(); h++ {
				c.helpers.Add(1)
				go func() {
					defer c.helpers.Done()
					defer linalg.ReleaseToken()
					for j := c.claim(); j >= 0; j = c.claim() {
						c.run(j)
					}
				}()
			}
		}
	}
}

// claim claims the lowest pair nobody has started, or returns -1 when there
// is none or the search is done.
func (c *calibrations) claim() int {
	for !c.stopped.Load() {
		if i := int(c.next.Add(1)) - 1; i >= len(c.pairs) {
			break
		} else if !c.pairs[i].cached {
			return i
		}
	}
	return -1
}

func (c *calibrations) run(i int) {
	p := &c.pairs[i]
	p.model, p.err = c.o.modelFor(*p.mt, p.slots, NopSearch(), c.suite)
	close(p.done)
}

// stop ends the claims and waits for the calibrations in flight: no helper
// outlives the search.
func (c *calibrations) stop() {
	c.stopped.Store(true)
	c.helpers.Wait()
}

// slotOptions returns the slot configurations to sweep for a machine
// type: 1, half the cores, the cores, and 2x oversubscription.
func slotOptions(mt cloud.MachineType) []int {
	set := map[int]bool{}
	var out []int
	for _, s := range []int{1, mt.Cores / 2, mt.Cores, 2 * mt.Cores} {
		if s >= 1 && !set[s] {
			set[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// nodeSweep returns the cluster sizes to consider.
func nodeSweep(maxNodes int) []int {
	base := []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128}
	var out []int
	for _, n := range base {
		if n <= maxNodes {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// search is what one search derives once and reuses for every candidate:
// the plan compiled for each swept tile size, the predictor whose profile
// memo spans them, and the benchmark suite every (machine, slots) pair the
// model cache misses is calibrated through. OptimizeSplits overwrites every
// job's split for each candidate, so one plan serves the whole (machine,
// slots, nodes) grid.
type search struct {
	plans map[int]*plan.Plan
	pred  *sim.Predictor
	suite model.Suite
}

// Enumerate evaluates the full deployment space for the request: every
// (machine type, slots, nodes) triple, with per-job splits optimized by
// the simulator for each. When req.Search is set, every grid point is
// reported to it with its model-term breakdown.
func (o *Optimizer) Enumerate(req Request) ([]Deployment, error) {
	cands, _, err := o.enumerate(req.withDefaults(), searchOrNop(req.Search))
	return cands, err
}

// enumerate is Enumerate on a request with defaults applied; it also
// returns the search's shared state for the confidence re-simulation.
func (o *Optimizer) enumerate(req Request, rec SearchRecorder) ([]Deployment, *search, error) {
	if _, err := req.Program.Validate(); err != nil {
		return nil, nil, err
	}
	tileSizes := req.TileSizes
	if len(tileSizes) == 0 {
		tileSizes = []int{req.PlanCfg.TileSize}
	}
	s := &search{
		plans: map[int]*plan.Plan{},
		pred:  &sim.Predictor{Replication: req.Replication, JobStartup: req.JobStartupSec},
	}
	for _, ts := range tileSizes {
		cfg := req.PlanCfg
		cfg.TileSize = ts
		pl, err := plan.Compile(req.Program, cfg)
		if err != nil {
			return nil, nil, err
		}
		s.plans[ts] = pl
	}
	var out []Deployment
	cal := o.calibrations(req.Machines, &s.suite)
	defer cal.stop()
	for i := range cal.pairs {
		mt, slots := *cal.pairs[i].mt, cal.pairs[i].slots
		tm, err := cal.model(i, rec)
		if err != nil {
			return nil, nil, err
		}
		for _, nodes := range nodeSweep(req.MaxNodes) {
			cluster, err := cloud.NewCluster(mt, nodes, slots)
			if err != nil {
				return nil, nil, err
			}
			for _, ts := range tileSizes {
				pl, pred := s.plans[ts], s.pred
				// Counted per candidate, as when each compiled its own plan.
				if r := pl.Rewrites; r != nil {
					rec.Count(CounterCSEChains, int64(r.Chains()))
					rec.Count(CounterCSEFlops, r.FlopsSaved())
				}
				pred.Model, pred.Cluster = tm, cluster
				memPerSlot := int64(mt.MemoryGB * 1e9 * 0.7 / float64(slots))
				// Sweep splits with the fast wave model, then price the
				// chosen deployment with the exact scheduler simulation.
				pred.OptimizeSplits(pl, memPerSlot)
				secs := pred.PredictPlan(pl)
				splits := map[int]plan.Split{}
				for _, j := range pl.Jobs {
					splits[j.ID] = j.Split
				}
				d := Deployment{
					Cluster:     cluster,
					TileSize:    ts,
					Splits:      splits,
					PredSeconds: secs,
					Cost:        cloud.Cost(mt, nodes, secs),
					CostLinear:  cloud.CostLinear(mt, nodes, secs),
				}
				if rec.Enabled() {
					rec.Candidate(Candidate{
						Seq:         len(out),
						Deployment:  d,
						Terms:       pred.PlanTerms(pl),
						DominatedBy: -1,
					})
				}
				out = append(out, d)
			}
		}
	}
	return out, s, nil
}

// Search runs the search the request's constraint selects: the cheapest
// deployment within DeadlineSec when one is set, else the fastest within
// BudgetDollars.
func (o *Optimizer) Search(req Request) (*Result, error) {
	if req.DeadlineSec > 0 {
		return o.MinCostForDeadline(req)
	}
	return o.MinTimeForBudget(req)
}

// MinCostForDeadline finds the cheapest deployment predicted to finish
// within the deadline. If none exists, Met is false and Best is the
// fastest deployment found.
func (o *Optimizer) MinCostForDeadline(req Request) (*Result, error) {
	req = req.withDefaults()
	rec := searchOrNop(req.Search)
	if req.DeadlineSec <= 0 {
		return nil, fmt.Errorf("opt: deadline must be positive")
	}
	rec.Begin("min-cost-deadline", req.DeadlineSec, req.Confidence)
	rec.Count(CounterSearches, 1)
	cands, s, err := o.enumerate(req, rec)
	if err != nil {
		return nil, err
	}
	res := newResult(cands)
	if req.Confidence > 0 && req.Confidence < 1 {
		return o.minCostConfident(req, s, res, rec)
	}
	return decide(rec, res, func(d *Deployment) PruneReason {
		if d.PredSeconds > req.DeadlineSec {
			return PruneOverDeadline
		}
		return PruneNone
	}, func(a, b *Deployment) bool {
		return a.Cost < b.Cost || (a.Cost == b.Cost && a.PredSeconds < b.PredSeconds)
	}, func(a, b *Deployment) bool { return a.PredSeconds < b.PredSeconds }), nil
}

// newResult builds a Result with the Pareto analysis of the candidates.
func newResult(cands []Deployment) *Result {
	frontier, dominatedBy := paretoSplit(cands)
	return &Result{Candidates: cands, Frontier: frontier, DominatedBy: dominatedBy}
}

// decide makes the best candidate by better that infeasible classifies as
// feasible (PruneNone) the winner, or, when none is, the closest by closer
// with Met false. It then reports every candidate's fate to the search
// recorder: constraint violations, Pareto dominance, feasible-but-outranked,
// and the winner itself.
func decide(rec SearchRecorder, res *Result, infeasible func(*Deployment) PruneReason, better, closer func(a, b *Deployment) bool) *Result {
	win, closest := -1, -1
	for i := range res.Candidates {
		d := &res.Candidates[i]
		if closest == -1 || closer(d, &res.Candidates[closest]) {
			closest = i
		}
		if infeasible(d) == PruneNone && (win == -1 || better(d, &res.Candidates[win])) {
			win = i
		}
	}
	if res.Met = win >= 0; !res.Met {
		win = closest
	}
	if win >= 0 {
		res.Best = &res.Candidates[win]
	}
	if !rec.Enabled() {
		return res
	}
	for i := range res.Candidates {
		d := &res.Candidates[i]
		switch {
		case i == win && res.Met:
			// The winner's fate is recorded below.
		case infeasible(d) != PruneNone:
			rec.Prune(i, infeasible(d), -1, 0)
		case res.DominatedBy[i] >= 0:
			rec.Prune(i, PruneDominated, res.DominatedBy[i], 0)
		default:
			rec.Prune(i, PruneOutranked, -1, 0)
		}
	}
	if win >= 0 {
		rec.Winner(win, res.Met)
	}
	return res
}

// minCostConfident picks the cheapest candidate whose Confidence-quantile
// completion time (by Monte Carlo over the model's residual distribution)
// meets the deadline. Candidates are verified lazily in cost order, so
// the expensive simulation only touches the frontier.
func (o *Optimizer) minCostConfident(req Request, s *search, res *Result, rec SearchRecorder) (*Result, error) {
	trials := req.Trials
	if trials <= 0 {
		trials = 30
	}
	order := make([]int, len(res.Candidates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := res.Candidates[order[a]], res.Candidates[order[b]]
		if da.Cost != db.Cost {
			return da.Cost < db.Cost
		}
		return da.PredSeconds < db.PredSeconds
	})
	// Quantiles simulated and rejected, by candidate index, so the prune
	// marks can be emitted in Seq order once the search decides.
	rejected := map[int]float64{}
	win, winQ := -1, 0.0
	for _, idx := range order {
		d := &res.Candidates[idx]
		// Point-infeasible candidates cannot become feasible at a higher
		// quantile.
		if d.PredSeconds > req.DeadlineSec {
			continue
		}
		q, err := o.confQuantile(req, s, d, trials, rec)
		if err != nil {
			return nil, err
		}
		rec.Count(CounterSimTrials, int64(trials))
		if q <= req.DeadlineSec {
			win, winQ = idx, q
			dd := *d
			dd.PredSeconds = q // report the promised (quantile) time
			dd.Confidence = req.Confidence
			dd.QuantileSeconds = q
			res.Best, res.Met = &dd, true
			break
		}
		rejected[idx] = q
	}
	fastest := -1
	for i := range res.Candidates {
		if fastest == -1 || res.Candidates[i].PredSeconds < res.Candidates[fastest].PredSeconds {
			fastest = i
		}
	}
	if win < 0 && fastest >= 0 {
		res.Best, res.Met = &res.Candidates[fastest], false
	}
	if rec.Enabled() {
		for i := range res.Candidates {
			d := &res.Candidates[i]
			switch {
			case i == win:
				// Attach the promised quantile to the winner's record
				// (PruneNone leaves it unrejected).
				rec.Prune(i, PruneNone, -1, winQ)
			case rejected[i] > 0:
				rec.Prune(i, PruneConfidence, -1, rejected[i])
			case d.PredSeconds > req.DeadlineSec:
				rec.Prune(i, PruneOverDeadline, -1, 0)
			case res.DominatedBy[i] >= 0:
				rec.Prune(i, PruneDominated, res.DominatedBy[i], 0)
			default:
				rec.Prune(i, PruneOutranked, -1, 0)
			}
		}
		if win >= 0 {
			rec.Winner(win, true)
		} else if fastest >= 0 {
			rec.Winner(fastest, false)
		}
	}
	return res, nil
}

// confQuantile applies the candidate's splits to the search's plan for its
// tile size and simulates the completion-time quantile at the request's
// confidence.
func (o *Optimizer) confQuantile(req Request, s *search, d *Deployment, trials int, rec SearchRecorder) (float64, error) {
	pl := s.plans[d.TileSize]
	if err := d.Apply(pl); err != nil {
		return 0, err
	}
	tm, err := o.modelFor(d.Cluster.Type, d.Cluster.Slots, rec, &s.suite)
	if err != nil {
		return 0, err
	}
	s.pred.Model, s.pred.Cluster = tm, d.Cluster
	return s.pred.PredictPlanQuantile(pl, trials, o.seed+int64(d.Cluster.Nodes), req.Confidence), nil
}

// MinTimeForBudget finds the fastest deployment whose billed cost fits the
// budget. If none exists, Met is false and Best is the cheapest.
func (o *Optimizer) MinTimeForBudget(req Request) (*Result, error) {
	req = req.withDefaults()
	rec := searchOrNop(req.Search)
	if req.BudgetDollars <= 0 {
		return nil, fmt.Errorf("opt: budget must be positive")
	}
	rec.Begin("min-time-budget", req.BudgetDollars, 0)
	rec.Count(CounterSearches, 1)
	cands, _, err := o.enumerate(req, rec)
	if err != nil {
		return nil, err
	}
	res := newResult(cands)
	return decide(rec, res, func(d *Deployment) PruneReason {
		if d.Cost > req.BudgetDollars {
			return PruneOverBudget
		}
		return PruneNone
	}, func(a, b *Deployment) bool {
		return a.PredSeconds < b.PredSeconds || (a.PredSeconds == b.PredSeconds && a.Cost < b.Cost)
	}, func(a, b *Deployment) bool { return a.Cost < b.Cost }), nil
}

// paretoSplit computes the Pareto frontier of the candidates in (time,
// cost) and, for every dominated candidate, the index of a frontier
// member that dominates it (-1 for frontier members). Dominance is
// no-worse in both dimensions and strictly better in one; exact
// (time, cost) ties keep the earliest-evaluated candidate on the
// frontier and mark later duplicates dominated by it.
func paretoSplit(cands []Deployment) ([]Deployment, []int) {
	dominatedBy := make([]int, len(cands))
	idx := make([]int, len(cands))
	for i := range idx {
		dominatedBy[i] = -1
		idx[i] = i
	}
	// Stable sort by (time, cost): among exact ties the earliest-evaluated
	// candidate sorts first and becomes the frontier member.
	sort.SliceStable(idx, func(a, b int) bool {
		da, db := cands[idx[a]], cands[idx[b]]
		if da.PredSeconds != db.PredSeconds {
			return da.PredSeconds < db.PredSeconds
		}
		return da.Cost < db.Cost
	})
	var out []Deployment
	minCost := math.Inf(1)
	minCostIdx := -1
	for _, i := range idx {
		d := cands[i]
		if d.Cost < minCost {
			out = append(out, d)
			minCost = d.Cost
			minCostIdx = i
		} else {
			// The running min-cost candidate is no slower (sorted) and no
			// costlier, and not an exact tie unless i came later: dominated.
			dominatedBy[i] = minCostIdx
		}
	}
	return out, dominatedBy
}
