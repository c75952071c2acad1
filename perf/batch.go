package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/opt"
	"cumulon/internal/plan"
)

// ---------------------------------------------------------------- search_gnmf

// searchWorkload is cumulon-opt as a user runs it: a fresh session (cold
// calibration), compile, and a deadline search over the full catalog.
type searchWorkload struct {
	sc   scale
	seed int64
	cfg  plan.Config
	next int
}

// searchCandidates is the grid every search must evaluate: the catalog's
// machine types and slot counts × the node counts up to the default MaxNodes.
const searchCandidates = 300

func newSearchWorkload(sc scale, seed int64) *searchWorkload {
	return &searchWorkload{sc: sc, seed: seed,
		cfg: plan.Config{TileSize: sc.searchTile, Densities: map[string]float64{"V": sc.searchDensity}}}
}

// source returns op i's program: m and n jittered ±2 % from the seed, so no
// two ops of a run share a program while their tile grids, and so their
// costs, stay within a few percent of each other.
func (w *searchWorkload) source(i int) string {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(i)))
	jitter := func(base int) int { return int(float64(base) * (0.98 + 0.04*rng.Float64())) }
	return gnmfSource(jitter(w.sc.searchM), jitter(w.sc.searchN), w.sc.searchR, w.sc.searchIters)
}

func (w *searchWorkload) setup() error {
	// Warm-up 1 records the search and replays it: the trace must re-derive
	// its own winner.
	src := w.source(-1)
	prog, err := lang.Parse(src)
	if err != nil {
		return err
	}
	st := opt.NewSearchTrace()
	res, err := core.NewSession(w.seed).Optimizer().MinCostForDeadline(opt.Request{
		Program: prog, PlanCfg: w.cfg, DeadlineSec: w.sc.searchDeadline, Search: st,
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		return err
	}
	replayed, err := opt.Replay(buf.Bytes())
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if len(replayed) != 1 || replayed[0].Seq != replayed[0].RecordedSeq || replayed[0].Met != replayed[0].RecordedMet {
		return fmt.Errorf("replay does not reproduce the recorded winner: %+v", replayed)
	}
	// Warm-up 2 is the plain op on the same program: same seed, same winner.
	again, err := w.search(src, sp{})
	if err != nil {
		return err
	}
	if again.Best.String() != res.Best.String() {
		return fmt.Errorf("same program and seed chose %q then %q", res.Best, again.Best)
	}
	return w.verify(-1, again)
}

func (w *searchWorkload) search(src string, root sp) (*opt.Result, error) {
	if root.t == nil {
		sess := core.NewSession(w.seed)
		pl, err := sess.CompileString(src, w.cfg)
		if err != nil {
			return nil, err
		}
		return sess.OptimizeDeadline(pl.Program, w.cfg, w.sc.searchDeadline)
	}
	s := root.child("session-new")
	sess := core.NewSession(w.seed)
	s.end()
	s = root.child("parse")
	prog, err := lang.Parse(src)
	s.end()
	if err != nil {
		return nil, err
	}
	s = root.child("validate")
	_, err = prog.Validate()
	s.end()
	if err != nil {
		return nil, err
	}
	s = root.child("compile")
	pl, err := plan.Compile(prog, w.cfg)
	s.end()
	if err != nil {
		return nil, err
	}
	s = root.child("optimize")
	defer s.end()
	return sess.OptimizeDeadline(pl.Program, w.cfg, w.sc.searchDeadline)
}

func (w *searchWorkload) op(i int, root sp) (any, error) { return w.search(w.source(i), root) }

func (w *searchWorkload) verify(_ int, result any) error {
	res := result.(*opt.Result)
	switch {
	case res.Best == nil:
		return fmt.Errorf("search returned no deployment")
	case !res.Met:
		return fmt.Errorf("deadline %gs not met (closest %s)", w.sc.searchDeadline, res.Best)
	case len(res.Candidates) != searchCandidates:
		return fmt.Errorf("%d candidates, want %d", len(res.Candidates), searchCandidates)
	}
	return nil
}

func (w *searchWorkload) measure(d time.Duration, tr *tracer, acc *samples) {
	w.next = runBatchWindow(w, d, tr, w.next, acc) // an op index, so a program, is never reused
}

func (w *searchWorkload) teardown() {}

// ------------------------------------------------- dense_matmul, gnmf_sparse

// runWorkload is core.Session.Run of one program on pre-generated inputs,
// materialized on the 4×2 m1.large cluster, followed by digesting the
// outputs the way the cumulon CLI prints them.
type runWorkload struct {
	seed    int64
	src     string
	cfg     plan.Config
	cluster cloud.Cluster
	// check validates the first warm-up's outputs against the oracle; every
	// later op must reproduce that run's digests.
	check func(in, out map[string]*linalg.Dense) error

	sess   *core.Session
	inputs map[string]*linalg.Dense
	ref    map[string]string // output name -> digest
	tasks  int
	next   int
}

// runResult is what one op hands to verify.
type runResult struct {
	digests map[string]string
	tasks   int
}

func newDenseWorkload(sc scale, seed int64) *runWorkload {
	n := sc.denseN
	return &runWorkload{
		seed: seed, src: matmulSource(n, n, n), cfg: plan.Config{TileSize: sc.denseTile},
		check: func(in, out map[string]*linalg.Dense) error {
			return freivalds(in["A"].Data, in["B"].Data, out["C"].Data, n, seed)
		},
	}
}

func newGNMFWorkload(sc scale, seed int64) *runWorkload {
	m, n, r, iters := sc.gnmfM, sc.gnmfN, sc.gnmfR, sc.gnmfIters
	return &runWorkload{
		seed: seed, src: gnmfSource(m, n, r, iters),
		cfg: plan.Config{TileSize: sc.gnmfTile, Densities: map[string]float64{"V": sc.gnmfDensity}},
		check: func(in, out map[string]*linalg.Dense) error {
			w := append([]float64(nil), in["W"].Data...)
			h := append([]float64(nil), in["H"].Data...)
			gnmfReference(in["V"].Data, w, h, m, n, r, iters)
			if err := relClose(out["W"].Data, w, 1e-9); err != nil {
				return fmt.Errorf("W: %w", err)
			}
			if err := relClose(out["H"].Data, h, 1e-9); err != nil {
				return fmt.Errorf("H: %w", err)
			}
			return nil
		},
	}
}

func (w *runWorkload) setup() error {
	prog, err := lang.Parse(w.src)
	if err != nil {
		return err
	}
	if w.cluster, err = m1Large(4, 2); err != nil {
		return err
	}
	w.sess = core.NewSession(w.seed)
	w.inputs = core.RandomInputs(prog, w.cfg, w.seed)
	w.ref = nil
	// Warm-up 1 is checked against the oracle and becomes the reference.
	outs, tasks, err := w.run(sp{})
	if err != nil {
		return err
	}
	if err := w.check(w.inputs, outs); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	w.ref, w.tasks = digestAll(outs), tasks
	// Warm-up 2 is a plain op.
	res, err := w.op(-1, sp{})
	if err != nil {
		return err
	}
	return w.verify(-1, res)
}

// run executes the program once. Untraced it is Session.Run; traced it does
// Session.Run's steps through the layers' exported functions, one span each.
func (w *runWorkload) run(root sp) (map[string]*linalg.Dense, int, error) {
	s := root.child("parse")
	prog, err := lang.Parse(w.src)
	s.end()
	if err != nil {
		return nil, 0, err
	}
	s = root.child("validate")
	_, err = prog.Validate()
	s.end()
	if err != nil {
		return nil, 0, err
	}
	if root.t == nil {
		res, err := w.sess.Run(prog, w.cfg, core.ExecOptions{Cluster: w.cluster, Inputs: w.inputs})
		if err != nil {
			return nil, 0, err
		}
		return res.Outputs, len(res.Metrics.Tasks), nil
	}
	s = root.child("compile")
	pl, err := plan.Compile(prog, w.cfg)
	s.end()
	if err != nil {
		return nil, 0, err
	}
	s = root.child("autosplit")
	pl.AutoSplit(w.cluster.TotalSlots())
	s.end()
	s = root.child("engine-new")
	// The same engine configuration Session.Run derives from ExecOptions.
	eng, err := exec.New(exec.Config{Cluster: w.cluster, Materialize: true, Seed: w.seed, NoiseFactor: 0.08})
	s.end()
	if err != nil {
		return nil, 0, err
	}
	s = root.child("load")
	for _, in := range pl.Inputs {
		if err := eng.LoadDense(in, w.inputs[in.Name]); err != nil {
			s.end()
			return nil, 0, err
		}
	}
	s.end()
	s = root.child("run")
	m, err := eng.Run(pl)
	s.end()
	if err != nil {
		return nil, 0, err
	}
	s = root.child("fetch")
	defer s.end()
	outs := map[string]*linalg.Dense{}
	for name, meta := range pl.Outputs {
		if outs[name], err = eng.FetchOutput(meta); err != nil {
			return nil, 0, err
		}
	}
	return outs, len(m.Tasks), nil
}

func (w *runWorkload) op(_ int, root sp) (any, error) {
	outs, tasks, err := w.run(root)
	if err != nil {
		return nil, err
	}
	s := root.child("digest")
	defer s.end()
	return runResult{digests: digestAll(outs), tasks: tasks}, nil
}

func (w *runWorkload) verify(_ int, result any) error {
	res := result.(runResult)
	if res.tasks != w.tasks {
		return fmt.Errorf("%d tasks, want %d", res.tasks, w.tasks)
	}
	return sameDigests(res.digests, w.ref)
}

func (w *runWorkload) measure(d time.Duration, tr *tracer, acc *samples) {
	w.next = runBatchWindow(w, d, tr, w.next, acc)
}

func (w *runWorkload) teardown() { w.inputs, w.sess = nil, nil }

func digestAll(outs map[string]*linalg.Dense) map[string]string {
	d := make(map[string]string, len(outs))
	for name, m := range outs {
		d[name] = digest(m.Data)
	}
	return d
}

func sameDigests(got, want map[string]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			return fmt.Errorf("output %s digest %.12s, want %.12s", name, got[name], want[name])
		}
	}
	return nil
}
