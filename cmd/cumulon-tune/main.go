// Command cumulon-tune benchmarks the blocked-GEMM kernel tier on the
// current host, sweeping cache-blocking shapes (mc/kc/nc) and parallel
// worker counts, and writes the resulting profile as JSON. The profile
// has two consumers: cumulon-bench -autotune installs it into the kernels
// (best shape + worker bound), and cumulon -optimize feeds its measured
// speedup into deployment-model calibration (-kernel-profile).
//
// Usage:
//
//	cumulon-tune -out profile.json
//	cumulon-tune -quick -size 256 -out -        # fast sweep to stdout
//	cumulon -f prog.cm -optimize -deadline 3600 -kernel-profile profile.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"cumulon/internal/linalg"
	"cumulon/internal/linalg/tune"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cumulon-tune:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cumulon-tune", flag.ContinueOnError)
	size := fs.Int("size", 384, "square GEMM size each point is measured at")
	reps := fs.Int("reps", 3, "timed repetitions per point (best kept)")
	maxWorkers := fs.Int("max-workers", runtime.GOMAXPROCS(0), "largest worker count to sweep")
	seed := fs.Int64("seed", 1, "input data seed")
	out := fs.String("out", "", "write the profile JSON here (\"-\" for stdout; default: no file, table only)")
	quick := fs.Bool("quick", false, "tiny shape grid (defaults only): smoke tests and CI")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	o := tune.Options{Size: *size, Reps: *reps, MaxWorkers: *maxWorkers, Seed: *seed}
	if *quick {
		d := linalg.BlockDefaults()
		o.Shapes = []linalg.BlockShape{d, {MC: d.MC, KC: d.KC / 2, NC: d.NC / 2}}
	}
	prof, err := tune.Sweep(o)
	if err != nil {
		return err
	}

	fmt.Printf("host: GOMAXPROCS=%d, kernel %s, gemm %dx%dx%d, best of %d reps\n\n",
		prof.GoMaxProcs, prof.Kernel, prof.Size, prof.Size, prof.Size, prof.Reps)
	fmt.Printf("  %-8s %-8s %-8s %-8s %12s\n", "mc", "kc", "nc", "workers", "MFLOP/s")
	for _, pt := range prof.Points {
		marker := ""
		if pt == prof.Best {
			marker = "  <- best"
		}
		fmt.Printf("  %-8d %-8d %-8d %-8d %12.1f%s\n",
			pt.Shape.MC, pt.Shape.KC, pt.Shape.NC, pt.Workers, pt.MFlops, marker)
	}
	fmt.Printf("\nbest: mc=%d kc=%d nc=%d workers=%d at %.1f MFLOP/s (%.2fx over sequential %.1f)\n",
		prof.Best.Shape.MC, prof.Best.Shape.KC, prof.Best.Shape.NC,
		prof.Best.Workers, prof.Best.MFlops, prof.Speedup(), prof.Baseline.MFlops)

	switch *out {
	case "":
	case "-":
		fmt.Println()
		if err := prof.WriteJSON(os.Stdout); err != nil {
			return err
		}
	default:
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := prof.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("profile written to %s\n", *out)
	}
	return nil
}
