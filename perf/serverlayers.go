package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// serverLayers reports cumulond's own layers: what one submit costs with
// and without the journal, the client-side round trips, how fast small jobs
// flow with and without a state directory, the caches' hit ratios, the
// server's latency histograms, and the client-observed median of each job
// class. The mixed-traffic numbers come from the traced workload when it is
// serve_mixed, and from a short serve_mixed window otherwise.
func (p *prober) serverLayers(w workload, sum layerSummary) error {
	sw, ok := w.(*serveWorkload)
	if !ok {
		sw = newServeWorkload(p.sc, p.seed)
		defer sw.teardown()
		if err := sw.setup(); err != nil {
			return err
		}
		tr := newTracer()
		acc := &samples{}
		sw.measure(p.window(3*time.Second), tr, acc)
		if acc.failed > 0 {
			return fmt.Errorf("serve_mixed: %v", acc.failures)
		}
		sum = summarizeSpans(tr.snapshot())
	}
	p.m["server.http_submit_us"] = single(sum.SpanP50Ms["http-submit"]*1e3, "us")

	var all []float64
	for cls, lat := range sw.byClass {
		if len(lat) == 0 {
			return fmt.Errorf("no %s job completed in the window", classNames[cls])
		}
		p.m["server."+classNames[cls]+"_p50_ms"] = medianOf(lat, "ms")
		all = append(all, lat...)
	}
	p.m["server.job_p99_ms"] = metric{Value: percentile(all, 0.99), Unit: "ms", N: len(all)}

	cl := newClient(sw, -1)
	ctx := context.Background()
	var stats struct {
		Cache struct {
			PlanHits   float64 `json:"plan_hits"`
			PlanMisses float64 `json:"plan_misses"`
			DepHits    float64 `json:"deployment_hits"`
			DepMisses  float64 `json:"deployment_misses"`
		} `json:"cache"`
	}
	if err := cl.call(ctx, http.MethodGet, "/v1/stats", nil, http.StatusOK, &stats); err != nil {
		return err
	}
	c := stats.Cache
	p.m["server.plan_cache_hit_ratio"] = single(c.PlanHits/(c.PlanHits+c.PlanMisses), "ratio")
	p.m["server.dep_cache_hit_ratio"] = single(c.DepHits/(c.DepHits+c.DepMisses), "ratio")

	hist, err := cl.histogramMedians(ctx)
	if err != nil {
		return err
	}
	for short, name := range map[string]string{
		"queue_wait": "cumulond_queue_wait_seconds", "compile": "cumulond_compile_seconds", "run": "cumulond_run_seconds",
	} {
		sec, ok := hist[name]
		if !ok {
			return fmt.Errorf("/metrics.json has no histogram %s", name)
		}
		p.m["server."+short+"_p50_ms"] = single(sec*1e3, "ms")
	}
	p.m["server.overhead_p50_ms"] = single(median(all)-p.m["server.queue_wait_p50_ms"].Value-p.m["server.run_p50_ms"].Value, "ms")

	// One poll of a finished job's event stream returns at once: the bare
	// round trip.
	small := sw.fixed[clsSmall][0]
	small.Tenant = tenants[0]
	if _, err := cl.runJob(small, sp{}); err != nil {
		return err
	}
	p.m["server.events_poll_us"] = scaled(perCall(p.reps(20), 10, func() {
		var page eventPage
		err = cl.call(ctx, http.MethodGet, "/v1/jobs/"+cl.lastID+"/events?wait=0&since=0", nil, http.StatusOK, &page)
	}), 1e6, "us")
	if err != nil {
		return err
	}

	// The journal's cost: the same submits and the same small-job loop on a
	// server without and with a state directory.
	mem, err := p.smallJobs(false, small)
	if err != nil {
		return err
	}
	durable, err := p.smallJobs(true, small)
	if err != nil {
		return err
	}
	p.m["server.journal_ms_per_job"] = single(1e3/durable-1e3/mem, "ms")
	return nil
}

// smallJobs starts a fresh server, without or with a state directory, times
// direct submits of one small virtual job on it, then runs the small-job
// closed loop and returns its jobs per second.
func (p *prober) smallJobs(durable bool, small submitBody) (float64, error) {
	suffix := map[bool]string{false: "mem", true: "durable"}[durable]
	s := newServeWorkload(p.sc, p.seed)
	s.durable = durable
	s.buildMix()
	defer s.teardown()
	if err := s.start(); err != nil {
		return 0, err
	}
	submitS, err := s.timeSubmits(p.reps(100), small)
	if err != nil {
		return 0, err
	}
	p.m["server.submit_"+suffix+"_us"] = scaled(submitS, 1e6, "us")
	journal := filepath.Join(s.dir, "jobs")
	before, _ := dirBytes(journal) // absent without a state directory
	jobs, secs, err := s.smallLoop(p.window(1500 * time.Millisecond))
	if err != nil {
		return 0, err
	}
	rate := float64(jobs) / secs
	p.m["server.small_jobs_per_s_"+suffix] = single(rate, "1/s")
	if durable {
		after, err := dirBytes(journal)
		if err != nil {
			return 0, err
		}
		p.m["server.journal_bytes_per_job"] = single(float64(after-before)/float64(jobs), "B")
	}
	return rate, nil
}

// window scales a probe window down for the smoke scale.
func (p *prober) window(d time.Duration) time.Duration {
	if p.sc.name == "smoke" {
		return d / 10
	}
	return d
}

// timeSubmits times n direct Server.Submit calls of one small virtual job,
// letting each job finish before the next submit so nothing else runs.
func (w *serveWorkload) timeSubmits(n int, b submitBody) ([]float64, error) {
	cl := newClient(w, -1)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		st, err := w.srv.Submit(b.request())
		out = append(out, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		err = cl.follow(ctx, st.ID)
		cancel()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// smallLoop runs the scale's clients in a closed loop of small virtual jobs
// only, for d, and returns the jobs completed and the seconds taken.
func (w *serveWorkload) smallLoop(d time.Duration) (int, float64, error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	jobs := 0
	start := time.Now()
	for i := 0; i < w.sc.serveClients; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			c := newClient(w, idx)
			for time.Since(start) < d {
				b := w.fixed[clsSmall][c.rng.Intn(len(w.fixed[clsSmall]))]
				b.Tenant = tenants[idx%len(tenants)]
				_, err := c.runJob(b, sp{})
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				jobs++
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	return jobs, time.Since(start).Seconds(), firstErr
}

// histogramMedians reads /metrics.json and returns the median, in seconds,
// of every unlabelled histogram, interpolated inside its bucket.
func (c *client) histogramMedians(ctx context.Context) (map[string]float64, error) {
	var dump struct {
		Metrics []struct {
			Name    string `json:"name"`
			Buckets []struct {
				LE         string  `json:"le"`
				Cumulative float64 `json:"cumulative"`
			} `json:"buckets"`
		} `json:"metrics"`
	}
	if err := c.call(ctx, http.MethodGet, "/metrics.json", nil, http.StatusOK, &dump); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range dump.Metrics {
		n := len(m.Buckets)
		if n == 0 || m.Buckets[n-1].Cumulative == 0 {
			continue
		}
		half := m.Buckets[n-1].Cumulative / 2
		lo, below := 0.0, 0.0
		for _, b := range m.Buckets {
			if b.LE == "+Inf" { // the median lies past the last bound
				out[m.Name] = lo
				break
			}
			hi, err := strconv.ParseFloat(b.LE, 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics.json: %s: bad bucket bound %q", m.Name, b.LE)
			}
			if b.Cumulative >= half {
				out[m.Name] = lo + (hi-lo)*(half-below)/(b.Cumulative-below)
				break
			}
			lo, below = hi, b.Cumulative
		}
	}
	return out, nil
}
