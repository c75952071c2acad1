// Command cumulon compiles and runs a matrix program on a simulated cloud
// cluster, reporting the plan, per-job timings and the bill.
//
// Programs use the textual syntax of package lang, e.g.:
//
//	input V 100000 50000 sparse
//	input W 100000 10
//	input H 10 50000
//	H = H .* (W' * V) ./ ((W' * W) * H)
//	W = W .* (V * H') ./ (W * (H * H'))
//	output W
//	output H
//
// Usage:
//
//	cumulon -f prog.cm -machine c1.medium -nodes 16 -slots 2
//	cumulon -f prog.cm -materialize      # small programs: compute real values
//	cumulon -f prog.cm -optimize -explain # let the optimizer pick the cluster
//	echo 'input A 4096 4096 ...' | cumulon
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cumulon/internal/chaos"
	"cumulon/internal/ckpt"
	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/obs"
	"cumulon/internal/opt"
	"cumulon/internal/plan"
	"cumulon/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cumulon:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cumulon", flag.ContinueOnError)
	file := fs.String("f", "", "program file (default: stdin)")
	machine := fs.String("machine", "m1.large", "machine type")
	nodes := fs.Int("nodes", 8, "cluster size")
	slots := fs.Int("slots", 2, "task slots per node")
	tile := fs.Int("tile", 2048, "tile size in elements")
	density := fs.Float64("density", 0.05, "assumed density of sparse inputs")
	materialize := fs.Bool("materialize", false,
		"compute real values on random inputs (small programs only) and print output stats")
	seed := fs.Int64("seed", 42, "seed for data, placement and noise")
	workers := fs.Int("workers", 0,
		"tasks computed at once with -materialize (0 = the host's compute budget, 1 = sequential; results are identical)")
	kernelPar := fs.Int("kernel-par", 0,
		"size of the host's compute budget: goroutines doing tile math at once, tasks and parallel GEMM together (0 = GOMAXPROCS; results are identical)")
	showPlan := fs.Bool("plan", true, "print the compiled physical plan")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of text")
	dot := fs.Bool("dot", false, "emit the plan DAG in Graphviz DOT and exit")
	traceOut := fs.String("trace", "",
		"write a Chrome trace-event JSON of the run to this file (open in chrome://tracing or Perfetto; \"-\" for stdout)")
	metricsOut := fs.String("metrics", "",
		"write a Prometheus-style text metrics snapshot of the run to this file (\"-\" for stdout)")
	timelineOut := fs.String("timeline", "",
		"write the per-task timeline CSV to this file (\"-\" for stdout)")
	critpath := fs.Bool("critpath", false, "print the critical-path analysis of the run")
	optimize := fs.Bool("optimize", false,
		"let the optimizer choose the deployment (machine type, nodes, slots, splits) instead of -machine/-nodes/-slots")
	deadline := fs.Float64("deadline", 0,
		"with -optimize: deadline in seconds to minimize cost under (default 24h when no -budget is given)")
	budget := fs.Float64("budget", 0, "with -optimize: budget in dollars to minimize time under")
	confidence := fs.Float64("confidence", 0,
		"with -optimize -deadline: promise the deadline at this probability (e.g. 0.95) instead of in expectation")
	maxNodes := fs.Int("max-nodes", 64, "with -optimize: largest cluster size to consider")
	explain := fs.Bool("explain", false,
		"with -optimize: print an EXPLAIN report of the search (winner vs nearest rivals, per-term deltas, prune reasons)")
	searchTrace := fs.String("searchtrace", "",
		"with -optimize: write the candidate-level search trace to this file (JSON, or CSV when the path ends in .csv; \"-\" for stdout)")
	frontierOut := fs.String("frontier", "",
		"with -optimize: write the time/cost Pareto frontier as SVG to this file (\"-\" for stdout)")
	chaosSpec := fs.String("chaos", "",
		"inject a deterministic fault schedule, e.g. \"seed=7,kill=3@120,taskfault=0.02,readfault=0.01\" (kill=NODE@SECONDS repeats)")
	maxRetries := fs.Int("max-retries", 0,
		"per-task retry budget under faults (0 = default of 3, negative = no retries)")
	checkpoint := fs.Int("checkpoint", 0,
		"checkpoint the program at every Nth iteration boundary into -state-dir (0 = off)")
	resume := fs.Bool("resume", false,
		"resume from the newest valid checkpoint in -state-dir instead of recomputing finished iterations")
	stateDir := fs.String("state-dir", "",
		"directory holding program checkpoints for -checkpoint/-resume")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if *asJSON {
		*showPlan = false
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if !*optimize && (*explain || *searchTrace != "" || *frontierOut != "") {
		return fmt.Errorf("-explain, -searchtrace and -frontier require -optimize")
	}
	if *optimize && *deadline > 0 && *budget > 0 {
		return fmt.Errorf("specify at most one of -deadline and -budget")
	}
	if *resume && *checkpoint <= 0 {
		return fmt.Errorf("-resume requires -checkpoint N (the cadence is part of the checkpoint identity)")
	}
	if *checkpoint > 0 && *stateDir == "" {
		return fmt.Errorf("-checkpoint/-resume require -state-dir")
	}
	if err := plan.CheckDensity(*density); err != nil {
		return fmt.Errorf("-density: %v", err)
	}
	if err := opt.CheckConfidence(*confidence); err != nil {
		return fmt.Errorf("-confidence: %v", err)
	}
	if *kernelPar > 0 {
		linalg.SetParallelism(*kernelPar)
	}

	sched, err := chaos.Parse(*chaosSpec)
	if err != nil {
		return err
	}

	prog, err := lang.ParseFile(*file)
	if err != nil {
		return err
	}
	mt, err := cloud.TypeByName(*machine)
	if err != nil {
		return err
	}
	cluster, err := cloud.NewCluster(mt, *nodes, *slots)
	if err != nil {
		return err
	}
	cfg := plan.ConfigFor(prog, *tile, *density)

	sess := core.NewSession(*seed)
	if *dot {
		pl, err := sess.Compile(prog, cfg)
		if err != nil {
			return err
		}
		pl.AutoSplit(cluster.TotalSlots())
		fmt.Print(pl.ToDOT())
		return nil
	}
	if *showPlan {
		pl, err := sess.Compile(prog, cfg)
		if err != nil {
			return err
		}
		fmt.Print(pl)
		fmt.Println()
	}

	// With -optimize, search the deployment space first and execute what
	// the optimizer chose instead of the -machine/-nodes/-slots cluster.
	var (
		dep *opt.Deployment
		st  *opt.SearchTrace
	)
	if *optimize {
		if *deadline <= 0 && *budget <= 0 {
			// A loose default deadline: effectively "cheapest overall".
			*deadline = 24 * 3600
		}
		st = opt.NewSearchTrace()
		req := opt.Request{
			Program:       prog,
			PlanCfg:       cfg,
			DeadlineSec:   *deadline,
			BudgetDollars: *budget,
			Confidence:    *confidence,
			MaxNodes:      *maxNodes,
			Search:        st,
		}
		sres, err := sess.Optimizer().Search(req)
		if err != nil {
			return err
		}
		dep = sres.Best
		if !*asJSON {
			verdict := "optimizer chose"
			if !sres.Met {
				verdict = "constraint NOT satisfiable; closest is"
			}
			fmt.Printf("%s: %s\n\n", verdict, dep)
		}
		if *explain {
			if err := st.Explain(os.Stdout, 5); err != nil {
				return err
			}
			fmt.Println()
		}
		if *searchTrace != "" {
			if err := st.WriteFile(*searchTrace); err != nil {
				return err
			}
		}
		if *frontierOut != "" {
			if err := obs.WriteFile(*frontierOut, st.WriteFrontierSVG); err != nil {
				return err
			}
		}
		cluster = dep.Cluster
	}

	opts := core.ExecOptions{Cluster: cluster, Workers: *workers, Chaos: sched, MaxTaskRetries: *maxRetries}
	if *checkpoint > 0 {
		cs, err := ckpt.NewDirStore(*stateDir)
		if err != nil {
			return err
		}
		opts.CheckpointEvery = *checkpoint
		opts.CheckpointStore = cs
		opts.Resume = *resume
	}
	if *materialize {
		opts.Inputs = core.RandomInputs(prog, cfg, *seed)
	}
	var tr *obs.Trace
	if *traceOut != "" || *metricsOut != "" || *critpath {
		tr = obs.NewTrace()
		opts.Recorder = tr
	}
	var res *core.ExecResult
	if dep != nil {
		res, err = sess.RunDeployment(prog, cfg, dep, opts)
	} else {
		res, err = sess.Run(prog, cfg, opts)
	}
	if err != nil {
		return err
	}

	if *timelineOut != "" {
		if err := obs.WriteFile(*timelineOut, res.Metrics.TimelineCSV); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := obs.WriteFile(*traceOut, tr.WriteChrome); err != nil {
			return err
		}
	}
	if *metricsOut != "" {
		if err := obs.WriteFile(*metricsOut, func(w io.Writer) error {
			reg := obs.Snapshot(tr)
			if st != nil {
				// Fold the optimizer's search counters into the same snapshot.
				st.MetricsInto(reg)
			}
			return reg.Write(w)
		}); err != nil {
			return err
		}
	}
	if *critpath {
		cp, err := tr.CriticalPath()
		if err != nil {
			return err
		}
		if err := cp.Write(os.Stdout); err != nil {
			return err
		}
	}

	if *asJSON {
		return emitJSON(cluster, res)
	}

	fmt.Printf("cluster: %s\n", cluster)
	fmt.Printf("jobs:\n")
	for _, j := range res.Metrics.Jobs {
		fmt.Printf("  %-24s %-4s %4d tasks  %8.1fs\n", j.Name, j.Kind, j.Tasks, j.Seconds())
	}
	fmt.Printf("total time: %.1fs (%.2fh)\n", res.Metrics.TotalSeconds, res.Metrics.TotalSeconds/3600)
	fmt.Printf("total work: %.1f Gflops, %.2f GB read, %.2f GB written\n",
		float64(res.Metrics.TotalFlops)/1e9,
		float64(res.Metrics.TotalReadBytes)/1e9,
		float64(res.Metrics.TotalWriteBytes)/1e9)
	if m := res.Metrics; m.NodeCrashes > 0 || m.TotalRetries > 0 {
		fmt.Printf("recovery: %d node crash(es), %d task retries, %.1fs lost, %.2f GB re-replicated, %d blocks lost\n",
			m.NodeCrashes, m.TotalRetries, m.RecoverySeconds,
			float64(m.RereplicatedBytes)/1e9, m.BlocksLost)
	}
	if m := res.Metrics; m.Checkpoints > 0 || m.ResumedFromStmt > 0 {
		fmt.Printf("checkpoint: %d written (%.2f GB, %.1fs overhead)", m.Checkpoints,
			float64(m.CheckpointBytes)/1e9, m.CheckpointSeconds)
		if m.ResumedFromStmt > 0 {
			fmt.Printf("; resumed from stmt %d, %d jobs skipped", m.ResumedFromStmt, m.ResumeSkippedJobs)
		}
		fmt.Println()
	}
	fmt.Printf("bill: $%.2f\n", res.CostDollars)
	for _, o := range server.DigestOutputs(res.Outputs) {
		fmt.Printf("output %s: %dx%d, frobenius %.4g, sha256 %s\n",
			o.Name, o.Rows, o.Cols, o.Frobenius, o.SHA256)
	}
	return nil
}

// emitJSON writes a machine-readable run report to stdout.
func emitJSON(cluster cloud.Cluster, res *core.ExecResult) error {
	type jobOut struct {
		Name    string  `json:"name"`
		Kind    string  `json:"kind"`
		Tasks   int     `json:"tasks"`
		Seconds float64 `json:"seconds"`
	}
	report := struct {
		Cluster      string  `json:"cluster"`
		Machine      string  `json:"machine"`
		Nodes        int     `json:"nodes"`
		Slots        int     `json:"slots"`
		TotalSeconds float64 `json:"total_seconds"`
		CostDollars  float64 `json:"cost_dollars"`
		TotalGflops  float64 `json:"total_gflops"`
		ReadGB       float64 `json:"read_gb"`
		WriteGB      float64 `json:"write_gb"`
		NodeCrashes  int     `json:"node_crashes,omitempty"`
		Retries      int     `json:"retries,omitempty"`
		RecoverySec  float64 `json:"recovery_seconds,omitempty"`
		RereplGB     float64 `json:"rereplicated_gb,omitempty"`
		Checkpoints  int     `json:"checkpoints,omitempty"`
		CheckpointGB float64 `json:"checkpoint_gb,omitempty"`
		ResumedStmt  int     `json:"resumed_from_stmt,omitempty"`

		// Outputs carries sorted name/shape/digest records for
		// materialized runs; digests match cumulond's, so resumed,
		// rerun and server-side results can be diffed directly.
		Outputs []server.OutputInfo `json:"outputs,omitempty"`
		Jobs    []jobOut            `json:"jobs"`
	}{
		Cluster:      cluster.String(),
		Machine:      cluster.Type.Name,
		Nodes:        cluster.Nodes,
		Slots:        cluster.Slots,
		TotalSeconds: res.Metrics.TotalSeconds,
		CostDollars:  res.CostDollars,
		TotalGflops:  float64(res.Metrics.TotalFlops) / 1e9,
		ReadGB:       float64(res.Metrics.TotalReadBytes) / 1e9,
		WriteGB:      float64(res.Metrics.TotalWriteBytes) / 1e9,
		NodeCrashes:  res.Metrics.NodeCrashes,
		Retries:      res.Metrics.TotalRetries,
		RecoverySec:  res.Metrics.RecoverySeconds,
		RereplGB:     float64(res.Metrics.RereplicatedBytes) / 1e9,
		Checkpoints:  res.Metrics.Checkpoints,
		CheckpointGB: float64(res.Metrics.CheckpointBytes) / 1e9,
		ResumedStmt:  res.Metrics.ResumedFromStmt,
		Outputs:      server.DigestOutputs(res.Outputs),
	}
	for _, j := range res.Metrics.Jobs {
		report.Jobs = append(report.Jobs, jobOut{Name: j.Name, Kind: j.Kind, Tasks: j.Tasks, Seconds: j.Seconds()})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
