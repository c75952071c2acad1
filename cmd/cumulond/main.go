// Command cumulond serves the multi-tenant Cumulon job service over
// HTTP+JSON: job submission with admission control, weighted fair-share
// scheduling across tenants, a plan/deployment cache, and per-tenant
// metrics. See README.md ("Running cumulond") for the API.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"cumulon/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cumulond:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	// The flags spell a server.Config; their defaults are its own, a zero
	// Config's once normalized.
	cfg := server.Config{}.WithDefaults()
	fs := flag.NewFlagSet("cumulond", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:8470", "listen address (use :0 for a random port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file (for scripts that use -addr :0)")
	fs.StringVar(&cfg.Machine, "machine", cfg.Machine, "machine type of the shared simulated cluster")
	fs.IntVar(&cfg.Nodes, "nodes", cfg.Nodes, "node capacity of the shared cluster")
	fs.IntVar(&cfg.Slots, "slots", cfg.Slots, "default task slots per node")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "default seed for jobs that do not supply one")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "tasks a materialized job computes at once (0 = the host's compute budget, shared by all jobs; 1 = sequential)")
	weights := fs.String("weights", "", "fair-share weights as tenant=w pairs, e.g. \"analytics=3,adhoc=1\"")
	fs.Float64Var(&cfg.Sched.AgingRate, "aging", cfg.Sched.AgingRate, "service units per second a waiting job's rank improves by")
	fs.Float64Var(&cfg.Sched.PriorityBoost, "priority-boost", cfg.Sched.PriorityBoost, "service units of head start per priority point")
	fs.Float64Var(&cfg.Sched.ReserveAfterSec, "reserve-after", cfg.Sched.ReserveAfterSec, "seconds before a wide job blocks backfilling (starvation bound)")
	fs.IntVar(&cfg.MaxQueue, "max-queue", cfg.MaxQueue, "admission queue bound (429 beyond it)")
	fs.IntVar(&cfg.CacheSize, "cache-size", cfg.CacheSize, "plan+deployment cache entry bound (LRU eviction beyond it)")
	fs.IntVar(&cfg.JobHistory, "job-history", cfg.JobHistory, "terminal jobs retained before the oldest are pruned")
	fs.IntVar(&cfg.ArtifactHistory, "artifact-history", cfg.ArtifactHistory, "finished jobs that keep retained trace/critpath/metrics/explain artifacts")
	fs.IntVar(&cfg.EventBuffer, "event-buffer", cfg.EventBuffer, "per-job event ring-buffer size")
	fs.StringVar(&cfg.StateDir, "state-dir", cfg.StateDir, "durable state directory: job-store journal plus program checkpoints; a restarted server recovers its job history and resumes in-flight jobs")
	fs.BoolVar(&cfg.Pprof, "pprof", cfg.Pprof, "mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", cfg.Workers)
	}
	var err error
	if cfg.Sched.Weights, err = parseWeights(*weights); err != nil {
		return err
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "cumulond listening on http://%s (machine %s, %d nodes, seed %d)\n",
		bound, cfg.Machine, cfg.Nodes, cfg.Seed)
	// Bound how long a client may take to send a request. No WriteTimeout:
	// SSE streams and long-polls are legitimately long responses.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return hs.Serve(ln)
}

// parseWeights parses "a=2,b=1" into a weight map.
func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -weights entry %q (want tenant=weight)", pair)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -weights value %q for tenant %s (want a positive number)", val, name)
		}
		out[name] = w
	}
	return out, nil
}
