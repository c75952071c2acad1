// Command cumulon-bench regenerates the paper's evaluation tables and
// figures (experiments E01..E12; see DESIGN.md for the mapping).
//
// Usage:
//
//	cumulon-bench              # run every experiment
//	cumulon-bench -exp E04     # run one experiment
//	cumulon-bench -seed 7      # change the reproduction seed
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cumulon/internal/bench"
	"cumulon/internal/chaos"
	"cumulon/internal/linalg"
	"cumulon/internal/obs"
	"cumulon/internal/opt"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run (default: all)")
	seed := flag.Int64("seed", 42, "reproduction seed")
	quiet := flag.Bool("q", false, "suppress the kernel header line and per-experiment timing")
	format := flag.String("format", "text", "table format: text, markdown, or csv")
	workers := flag.Int("workers", 0,
		"tasks computed at once in materialized runs (0 = the host's compute budget, 1 = sequential; results are identical)")
	kernelPar := flag.Int("kernel-par", 0,
		"size of the host's compute budget: goroutines doing tile math at once (0 = GOMAXPROCS; results are identical)")
	traceOut := flag.String("trace", "",
		"write a Chrome trace-event JSON of the benchmarked engine runs to this file")
	metricsOut := flag.String("metrics", "",
		"write a Prometheus-style text metrics snapshot of the benchmarked runs to this file (\"-\" for stdout)")
	searchOut := flag.String("searchtrace", "",
		"write the optimizer search trace of E10-E12 to this file (JSON, or CSV when the path ends in .csv; \"-\" for stdout)")
	chaosSpec := flag.String("chaos", "",
		"inject a deterministic fault schedule into every engine run, e.g. \"seed=7,kill=3@120,taskfault=0.02\"")
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "-workers must be >= 0, got %d\n", *workers)
		os.Exit(1)
	}
	sched, err := chaos.Parse(*chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *kernelPar > 0 {
		linalg.SetParallelism(*kernelPar)
	}
	if !*quiet {
		// Wall-clock timings depend on which micro-kernel init selected
		// and on the budget; the tables do not.
		fmt.Printf("kernel %s, compute budget %d\n\n", linalg.KernelName(), linalg.Parallelism())
	}

	s := bench.NewSuite(*seed)
	s.Workers = *workers
	s.Chaos = sched
	var tr *obs.Trace
	if *traceOut != "" || *metricsOut != "" {
		tr = obs.NewTrace()
		s.Recorder = tr
	}
	var st *opt.SearchTrace
	if *searchOut != "" || *metricsOut != "" {
		st = opt.NewSearchTrace()
		s.Search = st
	}
	run := func(id string) error {
		t0 := time.Now()
		if _, err := s.RunOneFormat(id, os.Stdout, *format); err != nil {
			return err
		}
		if !*quiet {
			fmt.Printf("[%s took %v]\n\n", id, time.Since(t0).Round(time.Millisecond))
		}
		return nil
	}
	if *exp != "" {
		if err := run(*exp); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		for _, e := range bench.All() {
			if err := run(e.ID); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if tr != nil || st != nil {
		if err := writeObs(tr, st, *traceOut, *metricsOut, *searchOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// writeObs exports the traces recorded across the benchmarked runs: the
// engine spans, the optimizer search trace, and a combined metrics
// snapshot folding the search counters in with the engine counters.
func writeObs(tr *obs.Trace, st *opt.SearchTrace, tracePath, metricsPath, searchPath string) error {
	if tracePath != "" {
		if err := obs.WriteFile(tracePath, tr.WriteChrome); err != nil {
			return err
		}
	}
	if searchPath != "" {
		if err := st.WriteFile(searchPath); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		return obs.WriteFile(metricsPath, func(w io.Writer) error {
			reg := obs.Snapshot(tr)
			if st != nil {
				st.MetricsInto(reg)
			}
			return reg.Write(w)
		})
	}
	return nil
}
