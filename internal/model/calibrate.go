package model

import (
	"fmt"
	"math/rand"
	"sync"

	"cumulon/internal/cloud"
	"cumulon/internal/compute"
	"cumulon/internal/dfs"
	"cumulon/internal/exec"
	"cumulon/internal/lang"
	"cumulon/internal/plan"
)

// benchmarkPrograms is the micro-benchmark suite: a spread of shapes and
// operator mixes chosen to decorrelate the model features (CPU-heavy
// products, I/O-heavy copies, mixed element-wise pipelines), mirroring the
// paper's one-time per-machine-type benchmarking phase.
var benchmarkPrograms = []string{
	// CPU-dominated: square products of growing size.
	`
input A 4096 4096
input B 4096 4096
C = A * B
output C
`,
	`
input A 8192 2048
input B 2048 4096
C = A * B
output C
`,
	// Skinny products (small output, tall inner dimension).
	`
input W 65536 256
C = W' * W
output C
`,
	// I/O-dominated: pure copies and element-wise maps.
	`
input A 16384 8192
B = A
output B
`,
	`
input A 16384 4096
input B 16384 4096
C = A .* B + A
output C
`,
	// Mixed: fused epilogue over a product.
	`
input A 4096 4096
input B 4096 4096
input C 4096 4096
D = C .* (A * B)
output D
`,
}

// benchmarks is the suite compiled: the plans, and how many tasks a
// calibration's runs make, in all and in its largest run. The plans and the
// split task counts depend on neither the machine nor the seed, so neither
// do the counts.
type benchmarks struct {
	plans       []*plan.Plan
	tasks, most int
}

// benchmarkPlans parses, compiles and counts the suite once per process: a
// cold optimizer search calibrates every (machine type, slots) pair, and the
// plans do not depend on either. Engine runs Clone them.
var benchmarkPlans = sync.OnceValues(func() (*benchmarks, error) {
	bs := &benchmarks{plans: make([]*plan.Plan, len(benchmarkPrograms))}
	for i, src := range benchmarkPrograms {
		prog, err := lang.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("model: benchmark %d: %w", i, err)
		}
		if bs.plans[i], err = plan.Compile(prog, plan.Config{TileSize: 1024}); err != nil {
			return nil, fmt.Errorf("model: benchmark %d: %w", i, err)
		}
		for _, tasks := range suiteSplits {
			pl, n := bs.plans[i].Clone(), 0
			pl.AutoSplit(tasks)
			for _, j := range pl.Jobs {
				for _, ph := range j.Phases() {
					n += ph.Tasks()
				}
			}
			bs.tasks, bs.most = bs.tasks+n, max(bs.most, n)
		}
	}
	return bs, nil
})

// CalibrationResult bundles the fitted model with its raw observations so
// callers can report residuals (experiment E7).
type CalibrationResult struct {
	Machine cloud.MachineType
	Slots   int
	Model   *TaskModel
	Obs     []Obs
}

// suiteSplits are the task counts every benchmark runs at: several splits
// per benchmark vary per-task work, enriching the regression design.
var suiteSplits = [...]int{4, 16, 64}

// Suite is the benchmark suite's machine-independent work, done once for
// every (machine type, slots) pair calibrated through it. A virtual task's
// result — flops, read paths, write sizes — depends only on the plan and the
// split, so each (benchmark, split) has a compute.Memo: the first
// calibration to run it records each phase's results, and later ones are
// served them through exec.Config.Backend. A benchmark's loaded file system
// depends only on the seed and the split's inputs (the geometry is fixed: 4
// nodes, replication 3, no racks, an external writer), so it is recorded
// once per (benchmark, split, seed) and later engines start on a fork of it.
// And no seed's random stream is drawn twice. The engines still do all that
// depends on the machine (scheduling, output placement, accounting, the
// noise each task draws), so the fitted model is bit-identical to a fresh
// calibration's.
//
// The zero Suite is ready to use and safe for concurrent use. The first
// calibration at a seed records everything every later one at that seed
// reads (TestFrozenSuiteServesEveryPair): no phase, load or stream value
// more, whatever the machine and slots. From then on the suite is only
// read, and a draw reads its stream's memo without a lock or an
// allocation; recording, and a draw past the end of a memo, take the
// suite's lock.
type Suite struct {
	mu sync.Mutex
	// memos holds, per benchmark and split, the memo its runs share.
	memos   [][len(suiteSplits)]compute.Memo
	streams map[int64]*stream
	loads   map[loadKey]load
}

// loadKey names a recorded load: benchmark, split index and calibration seed.
type loadKey struct {
	bench, split int
	seed         int64
}

// load is a benchmark's file system with its inputs placed, and how far into
// its placement stream placing them drew.
type load struct {
	fs    *dfs.FS
	drawn int
}

// stream is one seed's memoized random stream: out holds, in order, every
// value drawn from src so far. Both change only under the suite's lock, and
// out only by appending, so a copy of out read under it stays valid.
type stream struct {
	src rand.Source64
	out []uint64
}

// cursor reads a stream from position k on: a rand.Source64 whose values are
// those of rand.NewSource(seed). Each rngSource method advances it one value,
// and Int63 masks Uint64 exactly as rngSource.Int63 does, so every rand.Rand
// method returns what it would on a fresh source. out is the part of the
// memo the cursor has seen; it reads past it only under the suite's lock.
type cursor struct {
	s   *Suite
	st  *stream
	out []uint64
	k   int
}

func (c *cursor) Uint64() uint64 {
	if c.k >= len(c.out) {
		c.out = c.s.draw(c.st, c.k)
	}
	c.k++
	return c.out[c.k-1]
}

func (c *cursor) Int63() int64 { return int64(c.Uint64() & (1<<63 - 1)) }

func (c *cursor) Seed(int64) { panic("model: a memoized random stream cannot be reseeded") }

// draw extends st's memo through position k and returns it.
func (s *Suite) draw(st *stream, k int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(st.out) <= k {
		st.out = append(st.out, st.src.Uint64())
	}
	return st.out
}

// cursor returns a cursor over seed's stream at position k.
func (s *Suite) cursor(seed int64, k int) *cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.streams[seed]
	if st == nil {
		if s.streams == nil {
			s.streams = make(map[int64]*stream)
		}
		st = &stream{src: rand.NewSource(seed).(rand.Source64)}
		s.streams[seed] = st
	}
	return &cursor{s: s, st: st, k: k}
}

// Calibrate runs the micro-benchmark suite on a small instrumented
// cluster of the given machine type and slot configuration and fits the
// task-time model. Benchmarks run in virtual mode: durations follow the
// machine's hardware profile with straggler noise, which is exactly what
// the fitted model must capture. It computes a suite of its own.
func Calibrate(mt cloud.MachineType, slots int, seed int64) (*CalibrationResult, error) {
	return new(Suite).Calibrate(mt, slots, seed)
}

// Calibrate is the package-level Calibrate through the suite.
func (s *Suite) Calibrate(mt cloud.MachineType, slots int, seed int64) (*CalibrationResult, error) {
	cluster, err := cloud.NewCluster(mt, 4, slots)
	if err != nil {
		return nil, err
	}
	bs, err := benchmarkPlans()
	if err != nil {
		return nil, err
	}
	plans := bs.plans
	// Each run's task records become observations as the run ends, in
	// (benchmark, split, task) order, into one array of their final length;
	// the runs share one record array, at the largest run's length.
	obs := make([]Obs, 0, bs.tasks)
	m := exec.RunMetrics{Tasks: make([]exec.TaskRecord, 0, bs.most)}
	for i, tmpl := range plans {
		for k, tasks := range suiteSplits {
			// exec.New's seeds: noise from engineSeed, placement from one past.
			engineSeed := seed + int64(i*100+tasks)
			key := loadKey{i, k, seed}
			s.mu.Lock()
			if s.memos == nil {
				s.memos = make([][len(suiteSplits)]compute.Memo, len(plans))
				s.loads = make(map[loadKey]load)
			}
			ld, loaded := s.loads[key]
			s.mu.Unlock()
			var fs *dfs.FS
			var placement *cursor
			if loaded {
				fs = ld.fs.Fork(rand.New(s.cursor(engineSeed+1, ld.drawn)))
			} else {
				placement = s.cursor(engineSeed+1, 0)
				fs = dfs.NewOn(dfs.Config{Nodes: cluster.Nodes}, rand.New(placement))
			}
			e, err := exec.NewOn(exec.Config{
				Cluster:     cluster,
				Seed:        engineSeed,
				NoiseFactor: 0.08,
				Backend:     &s.memos[i][k],
			}, fs, rand.New(s.cursor(engineSeed, 0)))
			if err != nil {
				return nil, err
			}
			pl := tmpl.Clone()
			pl.AutoSplit(tasks)
			if !loaded {
				e.Reserve(pl)
				for _, in := range pl.Inputs {
					if err := e.LoadVirtual(in); err != nil {
						return nil, err
					}
				}
				s.mu.Lock()
				s.loads[key] = load{fs: fs.Fork(nil), drawn: placement.k}
				s.mu.Unlock()
			}
			if err := e.RunInto(pl, &m); err != nil {
				return nil, fmt.Errorf("model: benchmark %d: %w", i, err)
			}
			obs = AppendObs(obs, m.Tasks)
		}
	}
	tm, err := Fit(obs)
	if err != nil {
		return nil, err
	}
	return &CalibrationResult{Machine: mt, Slots: slots, Model: tm, Obs: obs}, nil
}

// AppendObs appends to dst the model observations of engine task records
// from a single-rack cluster of at least cloud.DefaultReplication nodes.
func AppendObs(dst []Obs, tasks []exec.TaskRecord) []Obs {
	for _, t := range tasks {
		disk, net := cloud.DiskNet(t.LocalReadBytes, t.RackReadBytes, t.RemoteReadBytes, t.WriteBytes, 1, cloud.DefaultReplication)
		dst = append(dst, Obs{Flops: t.Flops, DiskBytes: disk, NetBytes: net, Seconds: t.Seconds})
	}
	return dst
}
