package core_test

import (
	"sync"
	"testing"

	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// TestSessionConcurrentUse drives one shared Session from many
// goroutines at once — Run (materialized), Compile and a deadline
// optimization — and checks every run produces bit-identical outputs.
// Run under -race in CI; any unguarded shared state in the session or
// optimizer shows up here.
func TestSessionConcurrentUse(t *testing.T) {
	wl := workloads.GNMF(24, 18, 3, 1, 0.4)
	cfg := plan.Config{TileSize: 4, Densities: map[string]float64{"V": 0.4}}
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := cloud.NewCluster(mt, 4, 2)
	if err != nil {
		t.Fatal(err)
	}

	const seed = 11
	sess := core.NewSession(seed)
	inputs := core.RandomInputs(wl.Prog, cfg, seed)

	const n = 8
	var wg sync.WaitGroup
	sums := make([]float64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 3:
				// Optimizer path: exercises the shared model cache.
				_, errs[i] = sess.OptimizeDeadline(wl.Prog, cfg, 24*3600)
			case 2:
				// Compile-only path.
				_, errs[i] = sess.Compile(wl.Prog, cfg)
			default:
				// Full materialized run, on the loaded inputs or on the same
				// ones drawn from the seed into the store through the shared
				// stream pool; record a result fingerprint.
				opts := core.ExecOptions{Cluster: cluster, Seed: seed, Inputs: inputs}
				if i%4 == 1 {
					opts.Inputs, opts.Materialize = nil, true
				}
				res, err := sess.Run(wl.Prog, cfg, opts)
				if err != nil {
					errs[i] = err
					return
				}
				sums[i] = res.Outputs["W"].FrobeniusNorm() + res.Outputs["H"].FrobeniusNorm()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	var want float64
	for i, s := range sums {
		if s == 0 {
			continue // non-Run goroutine
		}
		if want == 0 {
			want = s
			continue
		}
		if s != want {
			t.Fatalf("goroutine %d produced a different result: %v vs %v", i, s, want)
		}
	}
	if want == 0 {
		t.Fatal("no Run goroutine recorded a result")
	}
}

// TestSessionConcurrentDistinctPrograms: concurrent runs of different
// programs on one session must not cross-contaminate results.
func TestSessionConcurrentDistinctPrograms(t *testing.T) {
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := cloud.NewCluster(mt, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		wl  workloads.Workload
		cfg plan.Config
	}
	jobs := []job{
		{workloads.GNMF(24, 18, 3, 1, 0.4), plan.Config{TileSize: 4, Densities: map[string]float64{"V": 0.4}}},
		{workloads.MatMul(16, 12, 16), plan.Config{TileSize: 4}},
		{workloads.Regression(32, 8, 1, 0.01), plan.Config{TileSize: 8}},
	}

	// Sequential baseline fingerprints.
	base := make([]float64, len(jobs))
	for i, jb := range jobs {
		sess := core.NewSession(7)
		res, err := sess.Run(jb.wl.Prog, jb.cfg, core.ExecOptions{
			Cluster: cluster, Seed: 7, Inputs: core.RandomInputs(jb.wl.Prog, jb.cfg, 7),
		})
		if err != nil {
			t.Fatalf("baseline %s: %v", jb.wl.Name, err)
		}
		for _, d := range res.Outputs {
			base[i] += d.FrobeniusNorm()
		}
	}

	// The same three programs, concurrently, on one shared session.
	sess := core.NewSession(7)
	const rounds = 4
	var wg sync.WaitGroup
	errCh := make(chan error, len(jobs)*rounds)
	for r := 0; r < rounds; r++ {
		for i, jb := range jobs {
			wg.Add(1)
			go func(i int, jb job) {
				defer wg.Done()
				res, err := sess.Run(jb.wl.Prog, jb.cfg, core.ExecOptions{
					Cluster: cluster, Seed: 7, Inputs: core.RandomInputs(jb.wl.Prog, jb.cfg, 7),
				})
				if err != nil {
					errCh <- err
					return
				}
				sum := 0.0
				for _, d := range res.Outputs {
					sum += d.FrobeniusNorm()
				}
				if sum != base[i] {
					errCh <- &mismatchError{name: jb.wl.Name, got: sum, want: base[i]}
				}
			}(i, jb)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

type mismatchError struct {
	name      string
	got, want float64
}

func (e *mismatchError) Error() string {
	return e.name + ": concurrent run diverged from sequential baseline"
}
