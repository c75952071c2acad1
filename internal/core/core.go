// Package core is Cumulon's front door: a Session ties the language,
// planner, optimizer, engine, and billing together behind a small API.
//
// Typical use:
//
//	s := core.NewSession(42)
//	wl := workloads.GNMF(100000, 50000, 10, 2, 0.01)
//	res, _ := s.OptimizeDeadline(wl.Prog, planCfg, 3600) // one hour
//	out, _ := s.RunDeployment(wl.Prog, planCfg, res.Best, core.ExecOptions{})
//	fmt.Println(out.Metrics.TotalSeconds, out.CostDollars)
//
// Programs execute either materialized (real matrices, verifiable
// results) or virtual (paper-scale timing studies); see exec.Config.
package core

import (
	"fmt"

	"cumulon/internal/cloud"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/opt"
	"cumulon/internal/plan"
)

// Session is the top-level handle. It caches calibrated cost models
// across optimizer calls.
//
// A Session is safe for concurrent use: Compile/CompileString are
// stateless, every Run/RunDeployment/ExecutePlan builds its own engine
// instance, and the only cross-call state — the optimizer's calibrated
// model cache — is mutex-guarded (see opt.Optimizer). The job server
// shares one Session across all tenants' worker goroutines; callers
// that want isolated model caches instead can simply create one Session
// per job (calibration is seeded, so sharing changes nothing but speed).
type Session struct {
	seed int64
	optz *opt.Optimizer
}

// NewSession creates a session whose randomness (placement, stragglers,
// calibration) derives deterministically from seed.
func NewSession(seed int64) *Session {
	return &Session{seed: seed, optz: opt.New(seed)}
}

// Compile lowers a program to a physical plan.
func (s *Session) Compile(p *lang.Program, cfg plan.Config) (*plan.Plan, error) {
	return plan.Compile(p, cfg)
}

// CompileString parses and lowers a program in the textual syntax.
func (s *Session) CompileString(src string, cfg plan.Config) (*plan.Plan, error) {
	p, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return plan.Compile(p, cfg)
}

// OptimizeDeadline finds the cheapest deployment meeting the deadline.
func (s *Session) OptimizeDeadline(p *lang.Program, cfg plan.Config, deadlineSec float64) (*opt.Result, error) {
	return s.optz.MinCostForDeadline(opt.Request{
		Program: p, PlanCfg: cfg, DeadlineSec: deadlineSec,
	})
}

// Optimizer exposes the underlying optimizer for custom requests.
func (s *Session) Optimizer() *opt.Optimizer { return s.optz }

// ExecOptions controls one execution. It is the engine's own
// configuration: a session run can set every engine field. The session
// owns four of them (see execute): Cluster is the Run/ExecutePlan cluster
// or the deployment's, a zero Seed means the session seed, a zero
// NoiseFactor means 0.08, and Materialize is set when Inputs is. A
// materialized run loads Inputs, or, when Inputs is nil, draws every input
// at Seed, one tile row at a time straight into its store: the matrices
// RandomInputs(plan's program, cfg, Seed) returns, byte for byte. Its
// outputs are fetched into ExecResult.Outputs. A virtual run registers its
// inputs by size only, and ExecResult.Outputs is nil.
type ExecOptions = exec.Config

// ExecResult is one finished execution.
type ExecResult struct {
	Plan    *plan.Plan
	Metrics *exec.RunMetrics
	// Outputs holds the fetched output matrices for materialized runs.
	Outputs map[string]*linalg.Dense
	// CostDollars is the billed price of the run on its cluster.
	CostDollars float64
}

// Run compiles and executes the program on opts.Cluster with heuristic
// (AutoSplit) physical parameters.
func (s *Session) Run(p *lang.Program, cfg plan.Config, opts ExecOptions) (*ExecResult, error) {
	pl, err := plan.Compile(p, cfg)
	if err != nil {
		return nil, err
	}
	pl.AutoSplit(opts.Cluster.TotalSlots())
	return s.execute(pl, opts.Cluster, opts)
}

// RunDeployment compiles and executes the program exactly as the
// optimizer's chosen deployment prescribes (its cluster and splits).
func (s *Session) RunDeployment(p *lang.Program, cfg plan.Config, d *opt.Deployment, opts ExecOptions) (*ExecResult, error) {
	if d == nil {
		return nil, fmt.Errorf("core: nil deployment")
	}
	if d.TileSize != 0 {
		// The optimizer may have swept the tile size; execute what it chose.
		cfg.TileSize = d.TileSize
	}
	pl, err := plan.Compile(p, cfg)
	if err != nil {
		return nil, err
	}
	if err := d.Apply(pl); err != nil {
		return nil, err
	}
	return s.execute(pl, d.Cluster, opts)
}

// ExecutePlan executes an already compiled (and already split) plan on
// the given cluster. It is the execution half of Run for callers that
// manage compilation themselves — the job server's plan cache compiles
// once, Clones the template per job, applies splits, and executes the
// clone here. The plan is treated as read-only.
func (s *Session) ExecutePlan(pl *plan.Plan, cluster cloud.Cluster, opts ExecOptions) (*ExecResult, error) {
	if pl == nil {
		return nil, fmt.Errorf("core: nil plan")
	}
	return s.execute(pl, cluster, opts)
}

// RandomInputs generates deterministic positive random input matrices
// for every input the program declares, honoring cfg.Densities for
// sparse inputs: each the whole matrix that a materialized session run
// with nil Inputs draws at seed, tile row by tile row, into its store (see
// ExecOptions). Tests and the benchmark load them to check a run against
// an oracle.
func RandomInputs(prog *lang.Program, cfg plan.Config, seed int64) map[string]*linalg.Dense {
	data := map[string]*linalg.Dense{}
	for i, in := range prog.Inputs {
		data[in.Name] = linalg.Drawn(in.Rows, in.Cols, inputRows(i, in.Sparse, cfg.Densities[in.Name], seed))
	}
	return data
}

// inputRows starts the draw of the program's input i at seed: from seed +
// 7i, a dense input shifted by 0.1 so that it is positive, a sparse one at
// its density, or 0.05 when that lies outside (0, 1].
func inputRows(i int, sparse bool, density float64, seed int64) linalg.RandomRows {
	s := seed + int64(i)*7
	if !sparse {
		return linalg.DenseRows(s, 0.1)
	}
	if density <= 0 || density > 1 {
		density = 0.05
	}
	return linalg.SparseRows(s, density)
}

func (s *Session) execute(pl *plan.Plan, cluster cloud.Cluster, opts ExecOptions) (*ExecResult, error) {
	opts.Cluster = cluster
	if opts.Seed == 0 {
		opts.Seed = s.seed
	}
	if opts.NoiseFactor == 0 {
		opts.NoiseFactor = 0.08
	}
	materialize := opts.Materialize || opts.Inputs != nil
	opts.Materialize = materialize
	eng, err := exec.New(opts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	eng.Reserve(pl)
	for i, in := range pl.Inputs {
		switch {
		case !materialize:
			err = eng.LoadVirtual(in)
		case opts.Inputs == nil:
			g := inputRows(i, in.Sparse, in.Density, opts.Seed)
			err = eng.LoadRows(in, g.Fill)
			g.Close()
		default:
			d, ok := opts.Inputs[in.Name]
			if !ok {
				return nil, fmt.Errorf("core: missing input %s", in.Name)
			}
			err = eng.LoadDense(in, d)
		}
		if err != nil {
			return nil, err
		}
	}
	m, err := eng.Run(pl)
	if err != nil {
		return nil, err
	}
	res := &ExecResult{
		Plan:        pl,
		Metrics:     m,
		CostDollars: cloud.Cost(cluster.Type, cluster.Nodes, m.TotalSeconds),
	}
	if materialize {
		res.Outputs = map[string]*linalg.Dense{}
		for name, meta := range pl.Outputs {
			d, err := eng.FetchOutput(meta)
			if err != nil {
				return nil, err
			}
			res.Outputs[name] = d
		}
	}
	return res, nil
}
