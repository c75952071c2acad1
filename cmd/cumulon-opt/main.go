// Command cumulon-opt runs Cumulon's cost-based deployment optimizer on a
// matrix program: given a deadline (seconds) or a budget (dollars), it
// searches machine types, cluster sizes, slot configurations and physical
// plan parameters, and prints the recommended deployment plus the
// time/cost Pareto frontier.
//
// Usage:
//
//	cumulon-opt -f prog.cm -deadline 3600
//	cumulon-opt -f prog.cm -budget 25 -max-nodes 32
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cumulon/internal/chaos"
	"cumulon/internal/core"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/linalg/tune"
	"cumulon/internal/obs"
	"cumulon/internal/opt"
	"cumulon/internal/plan"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cumulon-opt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cumulon-opt", flag.ContinueOnError)
	file := fs.String("f", "", "program file (default: stdin)")
	deadline := fs.Float64("deadline", 0, "deadline in seconds (minimize cost)")
	budget := fs.Float64("budget", 0, "budget in dollars (minimize time)")
	tile := fs.Int("tile", 2048, "tile size in elements")
	density := fs.Float64("density", 0.05, "assumed density of sparse inputs")
	maxNodes := fs.Int("max-nodes", 64, "largest cluster size to consider")
	seed := fs.Int64("seed", 42, "calibration seed")
	confidence := fs.Float64("confidence", 0,
		"promise the deadline at this probability (e.g. 0.95) instead of in expectation")
	showFrontier := fs.Bool("frontier", true, "print the time/cost Pareto frontier")
	explain := fs.Bool("explain", false,
		"print an EXPLAIN report of the search (winner vs nearest rivals, per-term deltas, prune reasons)")
	searchTrace := fs.String("searchtrace", "",
		"write the candidate-level search trace to this file (JSON, or CSV when the path ends in .csv; \"-\" for stdout)")
	frontierSVG := fs.String("frontier-svg", "",
		"write the time/cost Pareto frontier as SVG to this file (\"-\" for stdout)")
	dumpRewrites := fs.Bool("dump-rewrites", false,
		"report what the cross-statement CSE/hoisting pass eliminated from the program (also counted in the search trace as cse_chains / cse_flops_saved)")
	chaosSpec := fs.String("chaos", "",
		"stress-test the recommendation: execute the chosen deployment under this fault schedule (e.g. \"seed=7,kill=0@120,taskfault=0.02\") and report the slowdown against the prediction")
	kernelProfile := fs.String("kernel-profile", "",
		"kernel autotuner profile (JSON from cumulon-tune); its measured speedup scales each machine's effective throughput during calibration")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if (*deadline <= 0) == (*budget <= 0) {
		return fmt.Errorf("specify exactly one of -deadline or -budget")
	}
	if err := plan.CheckDensity(*density); err != nil {
		return fmt.Errorf("-density: %v", err)
	}
	if err := opt.CheckConfidence(*confidence); err != nil {
		return fmt.Errorf("-confidence: %v", err)
	}
	// Validate the chaos spec before the (expensive) search so a typo
	// fails fast.
	if _, err := chaos.Parse(*chaosSpec); err != nil {
		return err
	}
	prog, err := lang.ParseFile(*file)
	if err != nil {
		return err
	}
	cfg := plan.ConfigFor(prog, *tile, *density)
	st := opt.NewSearchTrace()
	req := opt.Request{
		Program:       prog,
		PlanCfg:       cfg,
		DeadlineSec:   *deadline,
		BudgetDollars: *budget,
		MaxNodes:      *maxNodes,
		Confidence:    *confidence,
		Search:        st,
	}
	o := opt.New(*seed)
	if *kernelProfile != "" {
		prof, err := tune.LoadFile(*kernelProfile)
		if err != nil {
			return err
		}
		o.UseKernelProfile(prof)
		fmt.Printf("kernel profile: %s (speedup %.2fx, best %s w=%d)\n",
			*kernelProfile, prof.Speedup(), shapeString(prof.Best.Shape), prof.Best.Workers)
	}
	res, err := o.Search(req)
	if err != nil {
		return err
	}
	if !res.Met {
		fmt.Println("constraint NOT satisfiable; closest deployment:")
	} else {
		fmt.Println("recommended deployment:")
	}
	b := res.Best
	fmt.Printf("  %s\n", b.Cluster)
	if *confidence > 0 {
		fmt.Printf("  time at %.0f%% confidence: %.1fs (%.2fh)\n", *confidence*100, b.PredSeconds, b.PredSeconds/3600)
	} else {
		fmt.Printf("  predicted time: %.1fs (%.2fh)\n", b.PredSeconds, b.PredSeconds/3600)
	}
	fmt.Printf("  billed cost:    $%.2f (linear $%.2f)\n", b.Cost, b.CostLinear)
	fmt.Printf("  splits:\n")
	pl, err := plan.Compile(prog, cfg)
	if err != nil {
		return err
	}
	for _, j := range pl.Jobs {
		fmt.Printf("    job %d %-24s %v\n", j.ID, j.Name, b.Splits[j.ID])
	}
	if *dumpRewrites {
		fmt.Println("\nrewrites:")
		if r := pl.Rewrites; r != nil {
			for _, e := range r.Entries {
				fmt.Printf("  cse %s: %s (%d occurrences, %d flops/eval saved)\n",
					e.Temp, e.Expr, e.Occurrences, e.FlopsSaved)
			}
			fmt.Printf("  total: %d chain(s) eliminated, %d flops/eval saved (search counters: cse_chains=%d cse_flops_saved=%d)\n",
				r.Chains(), r.FlopsSaved(),
				st.CounterValue(opt.CounterCSEChains), st.CounterValue(opt.CounterCSEFlops))
		} else {
			fmt.Println("  none (no repeated matrix-product chains)")
		}
	}
	if *showFrontier {
		fmt.Printf("\ntime/cost frontier (%d candidates evaluated):\n", len(res.Candidates))
		fmt.Printf("  %-26s %12s %10s\n", "deployment", "time (s)", "cost ($)")
		for _, d := range res.Frontier {
			fmt.Printf("  %-26s %12.1f %10.2f\n", d.Cluster, d.PredSeconds, d.Cost)
		}
	}
	if *explain {
		fmt.Println()
		if err := st.Explain(os.Stdout, 5); err != nil {
			return err
		}
	}
	if *searchTrace != "" {
		if err := st.WriteFile(*searchTrace); err != nil {
			return err
		}
	}
	if *frontierSVG != "" {
		if err := obs.WriteFile(*frontierSVG, st.WriteFrontierSVG); err != nil {
			return err
		}
	}
	if *chaosSpec != "" {
		sched, err := chaos.Parse(*chaosSpec)
		if err != nil {
			return err
		}
		sess := core.NewSession(*seed)
		vres, err := sess.RunDeployment(prog, cfg, b, core.ExecOptions{Chaos: sched})
		if err != nil {
			return fmt.Errorf("chaos validation run: %w", err)
		}
		m := vres.Metrics
		fmt.Printf("\nchaos validation (%s):\n", sched)
		fmt.Printf("  actual time:  %.1fs (predicted %.1fs, %.2fx)\n",
			m.TotalSeconds, b.PredSeconds, m.TotalSeconds/b.PredSeconds)
		fmt.Printf("  recovery:     %d node crash(es), %d task retries, %.1fs lost\n",
			m.NodeCrashes, m.TotalRetries, m.RecoverySeconds)
		fmt.Printf("  re-replicated: %.2f GB, %d blocks lost\n",
			float64(m.RereplicatedBytes)/1e9, m.BlocksLost)
		fmt.Printf("  billed cost:  $%.2f\n", vres.CostDollars)
	}
	return nil
}

func shapeString(s linalg.BlockShape) string {
	return fmt.Sprintf("mc=%d kc=%d nc=%d", s.MC, s.KC, s.NC)
}
