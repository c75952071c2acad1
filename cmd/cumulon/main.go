// Command cumulon compiles and runs a matrix program on a simulated cloud
// cluster, reporting the plan, per-job timings and the bill. With -optimize
// the cost-based optimizer first picks the deployment (machine type, nodes,
// slots and splits) that meets a deadline at least cost, or a budget in
// least time, reports it with its splits and the time/cost frontier, and
// runs it.
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
// The flags that describe the run spell a server.SubmitRequest, read by
// the same rules cumulond applies to a POST /v1/jobs body.
//
// Usage:
//
//	cumulon -f prog.cm -machine c1.medium -nodes 16 -slots 2
//	cumulon -f prog.cm -materialize      # small programs: compute real values
//	cumulon -f prog.cm -optimize -deadline 3600 -explain
//	cumulon -f prog.cm -optimize -budget 25 -max-nodes 32
//	echo 'input A 4096 4096 ...' | cumulon
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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

// site is what cumulon's requests take for the fields their flags leave
// unset, as cumulond's Config is for its requests: an 8-node m1.large
// cluster with 2 slots per node, seed 42, and at most 64 nodes run or
// searched.
var site = server.Config{Machine: "m1.large", Nodes: 64, DefaultJobNodes: 8, Slots: 2, Seed: 42}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cumulon:", err)
		os.Exit(1)
	}
}

// invocation is one parsed command line: the normalized request its flags
// spell, and the flags that are cumulon's own.
type invocation struct {
	req                                            server.SubmitRequest
	file, stateDir                                 string
	traceOut, metricsOut, timelineOut, searchTrace string
	frontierOut                                    string
	workers, kernelPar                             int
	showPlan, asJSON, dot, critpath, resume        bool
}

func parseArgs(args []string) (*invocation, error) {
	// The flags' defaults are the table's: a zero request, normalized.
	def := server.SubmitRequest{Optimize: true}
	if err := def.Normalize(site); err != nil {
		return nil, err
	}
	var in invocation
	r := &in.req
	fs := flag.NewFlagSet("cumulon", flag.ContinueOnError)
	fs.StringVar(&in.file, "f", "", "program file (default: stdin)")
	fs.StringVar(&r.Machine, "machine", def.Machine, "machine type")
	fs.IntVar(&r.Nodes, "nodes", def.Nodes, fmt.Sprintf("cluster size (at most %d)", site.Nodes))
	fs.IntVar(&r.Slots, "slots", def.Slots, "task slots per node")
	fs.IntVar(&r.Tile, "tile", def.Tile, "tile size in elements")
	fs.Float64Var(&r.Density, "density", def.Density, "assumed density of sparse inputs")
	fs.BoolVar(&r.Materialize, "materialize", false,
		"compute real values on random inputs (small programs only) and print output stats")
	fs.Int64Var(&r.Seed, "seed", def.Seed, "seed for data, placement and noise")
	fs.IntVar(&in.workers, "workers", 0,
		"tasks computed at once with -materialize (0 = the host's compute budget, 1 = sequential; results are identical)")
	fs.IntVar(&in.kernelPar, "kernel-par", 0,
		"size of the host's compute budget: goroutines doing tile math at once, tasks and parallel GEMM together (0 = GOMAXPROCS; results are identical)")
	fs.BoolVar(&in.showPlan, "plan", true, "print the compiled physical plan and what the CSE pass rewrote")
	fs.BoolVar(&in.asJSON, "json", false, "emit machine-readable JSON instead of text")
	fs.BoolVar(&in.dot, "dot", false, "emit the plan DAG in Graphviz DOT and exit")
	fs.StringVar(&in.traceOut, "trace", "",
		"write a Chrome trace-event JSON of the run to this file (open in chrome://tracing or Perfetto; \"-\" for stdout)")
	fs.StringVar(&in.metricsOut, "metrics", "",
		"write a Prometheus-style text metrics snapshot of the run to this file (\"-\" for stdout)")
	fs.StringVar(&in.timelineOut, "timeline", "",
		"write the per-task timeline CSV to this file (\"-\" for stdout)")
	fs.BoolVar(&in.critpath, "critpath", false, "print the critical-path analysis of the run")
	fs.BoolVar(&r.Optimize, "optimize", false,
		"let the optimizer choose the deployment (machine type, nodes, slots, splits) instead of -machine/-nodes/-slots")
	fs.Float64Var(&r.DeadlineSec, "deadline", 0, fmt.Sprintf(
		"with -optimize: deadline in seconds to minimize cost under (%gs when no -budget is given)", def.DeadlineSec))
	fs.Float64Var(&r.BudgetDollars, "budget", 0, "with -optimize: budget in dollars to minimize time under")
	fs.Float64Var(&r.Confidence, "confidence", 0,
		"with -optimize -deadline: promise the deadline at this probability (e.g. 0.95) instead of in expectation")
	fs.IntVar(&r.MaxNodes, "max-nodes", 0, fmt.Sprintf(
		"with -optimize: largest cluster size to consider (0 = %d, the most it takes)", def.MaxNodes))
	fs.BoolVar(&r.Explain, "explain", false,
		"with -optimize: print an EXPLAIN report of the search (winner vs nearest rivals, per-term deltas, prune reasons)")
	fs.StringVar(&in.searchTrace, "searchtrace", "",
		"with -optimize: write the candidate-level search trace to this file (JSON, or CSV when the path ends in .csv; \"-\" for stdout)")
	fs.StringVar(&in.frontierOut, "frontier", "",
		"with -optimize: write the time/cost Pareto frontier as SVG to this file (\"-\" for stdout)")
	fs.StringVar(&r.Chaos, "chaos", "",
		"inject a deterministic fault schedule, e.g. \"seed=7,kill=3@120,taskfault=0.02,readfault=0.01\" (kill=NODE@SECONDS repeats)")
	fs.IntVar(&r.MaxRetries, "max-retries", 0,
		"per-task retry budget under faults (0 = default of 3, negative = no retries)")
	fs.IntVar(&r.CheckpointEvery, "checkpoint", 0,
		"checkpoint the program at every Nth iteration boundary into -state-dir (0 = off)")
	fs.BoolVar(&in.resume, "resume", false,
		"resume from the newest valid checkpoint in -state-dir instead of recomputing finished iterations")
	fs.StringVar(&in.stateDir, "state-dir", "",
		"directory holding program checkpoints for -checkpoint/-resume")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if in.asJSON {
		in.showPlan = false
	}
	if in.asJSON && (r.Explain || in.critpath) {
		return nil, fmt.Errorf("-json prints one JSON document; -explain and -critpath print text reports beside it")
	}
	if in.asJSON && in.dot {
		return nil, fmt.Errorf("-json prints one JSON document; -dot prints the plan DAG instead")
	}
	for _, o := range [][2]string{{"-trace", in.traceOut}, {"-metrics", in.metricsOut},
		{"-timeline", in.timelineOut}, {"-searchtrace", in.searchTrace}, {"-frontier", in.frontierOut}} {
		if in.asJSON && o[1] == "-" {
			return nil, fmt.Errorf("-json prints one JSON document; %s - writes another to stdout beside it", o[0])
		}
	}
	if in.workers < 0 {
		return nil, fmt.Errorf("-workers must be >= 0, got %d", in.workers)
	}
	if !r.Optimize && (in.searchTrace != "" || in.frontierOut != "") {
		return nil, fmt.Errorf("-searchtrace and -frontier require -optimize")
	}
	if in.resume && r.CheckpointEvery <= 0 {
		return nil, fmt.Errorf("-resume requires -checkpoint N (the cadence is part of the checkpoint identity)")
	}
	if r.CheckpointEvery > 0 && in.stateDir == "" {
		return nil, fmt.Errorf("-checkpoint/-resume require -state-dir")
	}
	if err := r.Normalize(site); err != nil {
		return nil, err
	}
	return &in, nil
}

func run(args []string, w io.Writer) error {
	in, err := parseArgs(args)
	if err != nil {
		return err
	}
	req := &in.req
	if in.kernelPar > 0 {
		linalg.SetParallelism(in.kernelPar)
	}
	prog, err := lang.ParseFile(in.file)
	if err != nil {
		return err
	}
	mt, err := cloud.TypeByName(req.Machine)
	if err != nil {
		return err
	}
	cluster, err := cloud.NewCluster(mt, req.Nodes, req.Slots)
	if err != nil {
		return err
	}
	cfg := plan.ConfigFor(prog, req.Tile, req.Density)
	// The session's optimizer calibrates with the site's seed, as cumulond's
	// does; the request's seed reaches the run through ExecOptions.
	sess := core.NewSession(site.Seed)
	pl, err := sess.Compile(prog, cfg)
	if err != nil {
		return err
	}
	if in.dot {
		pl.AutoSplit(cluster.TotalSlots())
		fmt.Fprint(w, pl.ToDOT())
		return nil
	}
	if in.showPlan {
		fmt.Fprint(w, pl)
		writeRewrites(w, pl.Rewrites)
		fmt.Fprintln(w)
	}

	// With -optimize, search the deployment space first and execute what
	// the optimizer chose instead of the -machine/-nodes/-slots cluster.
	var (
		dep *opt.Deployment
		st  *opt.SearchTrace
	)
	if req.Optimize {
		if dep, st, err = search(w, in, sess, prog, pl); err != nil {
			return err
		}
		cluster = dep.Cluster
	}

	opts, err := req.ExecOptions(cluster)
	if err != nil {
		return err
	}
	opts.Workers = in.workers
	if req.CheckpointEvery > 0 {
		if opts.CheckpointStore, err = ckpt.NewDirStore(in.stateDir); err != nil {
			return err
		}
		opts.Resume = in.resume
	}
	var tr *obs.Trace
	if in.traceOut != "" || in.metricsOut != "" || in.critpath {
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

	if in.timelineOut != "" {
		if err := obs.WriteFile(in.timelineOut, res.Metrics.TimelineCSV); err != nil {
			return err
		}
	}
	if in.traceOut != "" {
		if err := obs.WriteFile(in.traceOut, tr.WriteChrome); err != nil {
			return err
		}
	}
	if in.metricsOut != "" {
		if err := obs.WriteFile(in.metricsOut, func(mw io.Writer) error {
			reg := obs.Snapshot(tr)
			if st != nil {
				// Fold the optimizer's search counters into the same snapshot.
				st.MetricsInto(reg)
			}
			return reg.Write(mw)
		}); err != nil {
			return err
		}
	}
	if in.critpath {
		cp, err := tr.CriticalPath()
		if err != nil {
			return err
		}
		if err := cp.Write(w); err != nil {
			return err
		}
	}

	if in.asJSON {
		return emitJSON(w, cluster, res)
	}

	fmt.Fprintf(w, "cluster: %s\n", cluster)
	fmt.Fprintf(w, "jobs:\n")
	for _, j := range res.Metrics.Jobs {
		fmt.Fprintf(w, "  %-24s %-4s %4d tasks  %8.1fs\n", j.Name, j.Kind, j.Tasks, j.Seconds())
	}
	fmt.Fprintf(w, "total time: %.1fs (%.2fh)\n", res.Metrics.TotalSeconds, res.Metrics.TotalSeconds/3600)
	fmt.Fprintf(w, "total work: %.1f Gflops, %.2f GB read, %.2f GB written\n",
		float64(res.Metrics.TotalFlops)/1e9,
		float64(res.Metrics.TotalReadBytes)/1e9,
		float64(res.Metrics.TotalWriteBytes)/1e9)
	if m := res.Metrics; m.NodeCrashes > 0 || m.TotalRetries > 0 {
		fmt.Fprintf(w, "recovery: %d node crash(es), %d task retries, %.1fs lost, %.2f GB re-replicated, %d blocks lost\n",
			m.NodeCrashes, m.TotalRetries, m.RecoverySeconds,
			float64(m.RereplicatedBytes)/1e9, m.BlocksLost)
	}
	if m := res.Metrics; m.Checkpoints > 0 || m.ResumedFromStmt > 0 {
		fmt.Fprintf(w, "checkpoint: %d written (%.2f GB, %.1fs overhead)", m.Checkpoints,
			float64(m.CheckpointBytes)/1e9, m.CheckpointSeconds)
		if m.ResumedFromStmt > 0 {
			fmt.Fprintf(w, "; resumed from stmt %d, %d jobs skipped", m.ResumedFromStmt, m.ResumeSkippedJobs)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "bill: $%.2f\n", res.CostDollars)
	for _, o := range server.DigestOutputs(res.Outputs) {
		fmt.Fprintf(w, "output %s: %dx%d, frobenius %.4g, sha256 %s\n",
			o.Name, o.Rows, o.Cols, o.Frobenius, o.SHA256)
	}
	return nil
}

// search runs the optimizer over the whole catalog and, in text mode,
// reports the winner with its per-job splits and the time/cost frontier.
func search(w io.Writer, in *invocation, sess *core.Session, prog *lang.Program, pl *plan.Plan) (*opt.Deployment, *opt.SearchTrace, error) {
	o := sess.Optimizer()
	st := opt.NewSearchTrace()
	oreq := in.req.SearchRequest(prog)
	oreq.Search = st
	sres, err := o.Search(oreq)
	if err != nil {
		return nil, nil, err
	}
	dep := sres.Best
	if !in.asJSON {
		verdict := "optimizer chose"
		if !sres.Met {
			verdict = "constraint NOT satisfiable; closest is"
		}
		fmt.Fprintf(w, "%s: %s\n", verdict, dep)
		for _, j := range pl.Jobs {
			fmt.Fprintf(w, "  job %d %-24s %v\n", j.ID, j.Name, dep.Splits[j.ID])
		}
		fmt.Fprintf(w, "\ntime/cost frontier (%d candidates evaluated):\n", len(sres.Candidates))
		fmt.Fprintf(w, "  %-26s %12s %10s\n", "deployment", "time (s)", "cost ($)")
		for _, d := range sres.Frontier {
			fmt.Fprintf(w, "  %-26s %12.1f %10.2f\n", d.Cluster, d.PredSeconds, d.Cost)
		}
		fmt.Fprintln(w)
	}
	if in.req.Explain {
		if err := st.Explain(w, 5); err != nil {
			return nil, nil, err
		}
		fmt.Fprintln(w)
	}
	if in.searchTrace != "" {
		if err := st.WriteFile(in.searchTrace); err != nil {
			return nil, nil, err
		}
	}
	if in.frontierOut != "" {
		if err := obs.WriteFile(in.frontierOut, st.WriteFrontierSVG); err != nil {
			return nil, nil, err
		}
	}
	return dep, st, nil
}

// writeRewrites reports what the cross-statement CSE/hoisting pass
// eliminated from the program; a search counts the same as cse_chains and
// cse_flops_saved.
func writeRewrites(w io.Writer, r *plan.RewriteReport) {
	if r == nil {
		fmt.Fprintln(w, "rewrites: none (no repeated matrix-product chains)")
		return
	}
	fmt.Fprintf(w, "rewrites: %d chain(s) eliminated, %d flops/eval saved\n", r.Chains(), r.FlopsSaved())
	for _, e := range r.Entries {
		fmt.Fprintf(w, "  cse %s: %s (%d occurrences, %d flops/eval saved)\n",
			e.Temp, e.Expr, e.Occurrences, e.FlopsSaved)
	}
}

// emitJSON writes a machine-readable run report.
func emitJSON(w io.Writer, cluster cloud.Cluster, res *core.ExecResult) error {
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
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
