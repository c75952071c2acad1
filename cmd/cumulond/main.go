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
	fs := flag.NewFlagSet("cumulond", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:8470", "listen address (use :0 for a random port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file (for scripts that use -addr :0)")
	machine := fs.String("machine", "m1.large", "machine type of the shared simulated cluster")
	nodes := fs.Int("nodes", 16, "node capacity of the shared cluster")
	slots := fs.Int("slots", 2, "default task slots per node")
	seed := fs.Int64("seed", 42, "default seed for jobs that do not supply one")
	workers := fs.Int("workers", 0, "tasks a materialized job computes at once (0 = the host's compute budget, shared by all jobs; 1 = sequential)")
	weights := fs.String("weights", "", "fair-share weights as tenant=w pairs, e.g. \"analytics=3,adhoc=1\"")
	aging := fs.Float64("aging", 1, "service units per second a waiting job's rank improves by")
	boost := fs.Float64("priority-boost", 100, "service units of head start per priority point")
	reserve := fs.Float64("reserve-after", 60, "seconds before a wide job blocks backfilling (starvation bound)")
	maxQueue := fs.Int("max-queue", 1024, "admission queue bound (429 beyond it)")
	cacheSize := fs.Int("cache-size", 256, "plan+deployment cache entry bound (LRU eviction beyond it)")
	jobHistory := fs.Int("job-history", 512, "terminal jobs retained before the oldest are pruned")
	artifactHistory := fs.Int("artifact-history", 64, "finished jobs that keep retained trace/critpath/metrics/explain artifacts")
	eventBuffer := fs.Int("event-buffer", 4096, "per-job event ring-buffer size")
	stateDir := fs.String("state-dir", "", "durable state directory: job-store journal plus program checkpoints; a restarted server recovers its job history and resumes in-flight jobs")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	w, err := parseWeights(*weights)
	if err != nil {
		return err
	}

	srv, err := server.New(server.Config{
		Machine: *machine, Nodes: *nodes, Slots: *slots,
		Seed: *seed, Workers: *workers, MaxQueue: *maxQueue,
		CacheSize: *cacheSize, JobHistory: *jobHistory,
		ArtifactHistory: *artifactHistory, EventBuffer: *eventBuffer,
		Pprof: *pprofFlag, StateDir: *stateDir,
		Sched: server.SchedConfig{
			Weights: w, AgingRate: *aging,
			PriorityBoost: *boost, ReserveAfterSec: *reserve,
		},
	})
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
		bound, *machine, *nodes, *seed)
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
