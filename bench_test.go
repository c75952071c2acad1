package cumulon

// One testing.B benchmark per experiment: each regenerates the
// corresponding table/figure of the paper's evaluation (see DESIGN.md for
// the mapping) and reports its headline number as a custom metric.
//
//	go test -bench=. -benchmem
//
// The qualitative claims behind each experiment (who wins, by what
// factor, where the optima fall) are asserted by TestExperimentShapes in
// internal/bench.

import (
	"io"
	"testing"

	"cumulon/internal/bench"
	"cumulon/internal/opt"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// runExp executes one experiment b.N times, reporting a chosen check
// value as a benchmark metric.
func runExp(b *testing.B, id string, metric string, unit string) {
	b.Helper()
	s := bench.NewSuite(42)
	for i := 0; i < b.N; i++ {
		res, err := s.RunOneFormat(id, io.Discard, "text")
		if err != nil {
			b.Fatal(err)
		}
		if metric != "" {
			v, ok := res.Checks[metric]
			if !ok {
				b.Fatalf("experiment %s has no check %q (have %v)", id, metric, res.Checks)
			}
			b.ReportMetric(v, unit)
		}
	}
}

func BenchmarkE01MachineCatalog(b *testing.B) { runExp(b, "E01", "types", "types") }

func BenchmarkE02WorkloadSuite(b *testing.B) {
	runExp(b, "E02", "jobs:gnmf-80000x40000x10-i1", "jobs")
}

func BenchmarkE03MatMulVsMR(b *testing.B) { runExp(b, "E03", "speedup:32768", "x-speedup") }

func BenchmarkE04GNMFVsMR(b *testing.B) { runExp(b, "E04", "speedup:40000", "x-speedup") }

func BenchmarkE05SplitSweep(b *testing.B) { runExp(b, "E05", "skinny:bestCk", "best-ck") }

func BenchmarkE06SlotSweep(b *testing.B) { runExp(b, "E06", "bestSlots:matmul", "best-slots") }

func BenchmarkE07TaskModelAccuracy(b *testing.B) { runExp(b, "E07", "mre:m1.large", "rel-err") }

func BenchmarkE08SimAccuracy(b *testing.B) { runExp(b, "E08", "worst", "rel-err") }

func BenchmarkE09Speedup(b *testing.B) { runExp(b, "E09", "rsvdSpeedup:32", "x-speedup") }

func BenchmarkE10CostDeadline(b *testing.B) { runExp(b, "E10", "cheapest", "dollars") }

func BenchmarkE11MachineChoice(b *testing.B) { runExp(b, "E11", "io:1.05:xlarge", "picked-xlarge") }

func BenchmarkE12OptimizerValue(b *testing.B) {
	runExp(b, "E12", "saving:rsvd-65536x16384-k256-p1", "x-saving")
}

func BenchmarkE13ReorderAblation(b *testing.B) {
	runExp(b, "E13", "speedup:50000x64x50000x16", "x-speedup")
}

func BenchmarkE14FusionAblation(b *testing.B) { runExp(b, "E14", "speedup:epilogue", "x-speedup") }

func BenchmarkE15OverlapAblation(b *testing.B) { runExp(b, "E15", "speedup:two-branch", "x-speedup") }

func BenchmarkE16MaskedMultiply(b *testing.B) { runExp(b, "E16", "speedup:0.01", "x-speedup") }

func BenchmarkE17SpotBidding(b *testing.B) { runExp(b, "E17", "bestCost", "dollars") }

func BenchmarkE18Locality(b *testing.B) { runExp(b, "E18", "local:r6", "local-frac") }

func BenchmarkE19Speculation(b *testing.B) { runExp(b, "E19", "improvement:0.6", "x-speedup") }

func BenchmarkE20FaultRecovery(b *testing.B) { runExp(b, "E20", "slowdown:4", "x-slowdown") }

func BenchmarkE21Distribution(b *testing.B) { runExp(b, "E21", "p95rel", "rel-err") }

func BenchmarkE22TileCache(b *testing.B) { runExp(b, "E22", "speedup:0.6", "x-speedup") }

// BenchmarkSearchGNMFCold is one cold cumulon-opt search, calibration
// included: a fresh optimizer, perf/'s search_gnmf program (paper-scale
// 1-iteration GNMF, tile 2048), a 120 s deadline over the full catalog —
// 300 candidates. CI gates its B/op (see .github/workflows/ci.yml):
// allocation repeats to a fraction of a percent on any host, times do not.
func BenchmarkSearchGNMFCold(b *testing.B) {
	w := workloads.GNMF(100000, 50000, 10, 1, 0.01)
	req := opt.Request{
		Program:     w.Prog,
		PlanCfg:     plan.Config{TileSize: 2048, Densities: w.Densities},
		DeadlineSec: 120,
	}
	b.ReportAllocs()
	candidates := 0
	for i := 0; i < b.N; i++ {
		res, err := opt.New(42).MinCostForDeadline(req)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Met {
			b.Fatalf("deadline not met: %v", res.Best)
		}
		candidates += len(res.Candidates)
	}
	b.ReportMetric(float64(candidates)/b.Elapsed().Seconds(), "candidates/s")
}
