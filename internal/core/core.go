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

	"cumulon/internal/chaos"
	"cumulon/internal/ckpt"
	"cumulon/internal/cloud"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/obs"
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

// OptimizeBudget finds the fastest deployment within the budget.
func (s *Session) OptimizeBudget(p *lang.Program, cfg plan.Config, budgetDollars float64) (*opt.Result, error) {
	return s.optz.MinTimeForBudget(opt.Request{
		Program: p, PlanCfg: cfg, BudgetDollars: budgetDollars,
	})
}

// Optimizer exposes the underlying optimizer for custom requests.
func (s *Session) Optimizer() *opt.Optimizer { return s.optz }

// ExecOptions controls one execution.
type ExecOptions struct {
	// Cluster to run on; ignored when a Deployment is supplied to
	// RunDeployment. Required for Run.
	Cluster cloud.Cluster
	// Inputs supplies real input matrices; when set, execution is
	// materialized and outputs are fetched. When nil, execution is
	// virtual: inputs are registered by size only and outputs are nil.
	Inputs map[string]*linalg.Dense
	// Replication is the DFS replication factor (default 3).
	Replication int
	// NoiseFactor scales straggler noise (default 0.08).
	NoiseFactor float64
	// Seed overrides the session seed for this run when nonzero.
	Seed int64
	// Workers bounds how many tasks a materialized run computes at once
	// (see exec.Config.Workers): 0 = the host's compute budget, 1 =
	// sequential. Virtual time and results are unaffected.
	Workers int
	// Recorder receives the run's observability spans (see obs.Recorder);
	// nil disables recording at zero cost.
	Recorder obs.Recorder
	// Chaos injects a deterministic fault schedule — node crashes,
	// transient task and read faults — into the run (see chaos.Schedule).
	// Recovery changes the timeline, never the results.
	Chaos *chaos.Schedule
	// MaxTaskRetries bounds per-task retry attempts under faults
	// (default 3; negative means no retries).
	MaxTaskRetries int
	// CheckpointEvery, when positive, checkpoints the program at every
	// Nth iteration boundary (see exec.Config.CheckpointEvery).
	CheckpointEvery int
	// CheckpointStore persists program checkpoints across runs (see
	// package ckpt). Required for Resume.
	CheckpointStore ckpt.Store
	// Resume fast-forwards past the jobs covered by the newest valid
	// checkpoint of this exact program and configuration.
	Resume bool
}

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
// sparse inputs. Both cmd/cumulon's -materialize mode and the job
// server use it, so a program submitted to the server with the same
// seed computes bit-identical outputs to a CLI run.
func RandomInputs(prog *lang.Program, cfg plan.Config, seed int64) map[string]*linalg.Dense {
	data := map[string]*linalg.Dense{}
	for i, in := range prog.Inputs {
		s := seed + int64(i)*7
		if in.Sparse {
			d := cfg.Densities[in.Name]
			if d <= 0 || d > 1 {
				d = 0.05
			}
			data[in.Name] = linalg.RandomSparseDense(in.Rows, in.Cols, d, s)
		} else {
			data[in.Name] = linalg.RandomDense(in.Rows, in.Cols, s).
				Map(func(x float64) float64 { return x + 0.1 })
		}
	}
	return data
}

func (s *Session) execute(pl *plan.Plan, cluster cloud.Cluster, opts ExecOptions) (*ExecResult, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = s.seed
	}
	noise := opts.NoiseFactor
	if noise == 0 {
		noise = 0.08
	}
	materialize := opts.Inputs != nil
	eng, err := exec.New(exec.Config{
		Cluster:         cluster,
		Replication:     opts.Replication,
		Materialize:     materialize,
		Seed:            seed,
		NoiseFactor:     noise,
		Workers:         opts.Workers,
		Recorder:        opts.Recorder,
		Chaos:           opts.Chaos,
		MaxTaskRetries:  opts.MaxTaskRetries,
		CheckpointEvery: opts.CheckpointEvery,
		CheckpointStore: opts.CheckpointStore,
		Resume:          opts.Resume,
	})
	if err != nil {
		return nil, err
	}
	for _, in := range pl.Inputs {
		if materialize {
			d, ok := opts.Inputs[in.Name]
			if !ok {
				return nil, fmt.Errorf("core: missing input %s", in.Name)
			}
			if err := eng.LoadDense(in, d); err != nil {
				return nil, err
			}
		} else if err := eng.LoadVirtual(in); err != nil {
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
