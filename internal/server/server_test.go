package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func submit(t *testing.T, base string, req SubmitRequest) JobStatus {
	t.Helper()
	var st JobStatus
	if err := postJSON(http.DefaultClient, base+"/v1/jobs", req, &st); err != nil {
		t.Fatalf("submit: %v", err)
	}
	return st
}

func await(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatus
		if err := getJSON(http.DefaultClient, base+"/v1/jobs/"+id, &st); err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// listAll returns every job's status in admission order, through the
// store scan the paginated API serves.
func listAll(s *Server) []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs, _ := s.store.listPage("", "", "", len(s.store.order)+1)
	return jobs
}

// TestServerSubmitAndResult runs a materialized GNMF end to end over
// HTTP and checks the result, then resubmits and checks the plan cache
// hit shows up on the job and in the stats.
func TestServerSubmitAndResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 8})
	req := SubmitRequest{
		Tenant: "acme", Program: gnmfSource(),
		Tile: 4, Density: 0.4, Nodes: 4, Materialize: true, Seed: 11,
	}
	st := submit(t, ts.URL, req)
	if st.ID != "j-000001" {
		t.Fatalf("first job ID %s, want j-000001", st.ID)
	}
	fin := await(t, ts.URL, st.ID)
	if fin.State != StateSucceeded {
		t.Fatalf("job failed: %s", fin.Error)
	}
	if fin.Result == nil || len(fin.Result.Outputs) == 0 {
		t.Fatal("materialized job returned no outputs")
	}
	if fin.Result.TotalSeconds <= 0 || fin.Result.CostDollars <= 0 {
		t.Fatalf("implausible result %+v", fin.Result)
	}
	for _, o := range fin.Result.Outputs {
		if len(o.SHA256) != 64 {
			t.Fatalf("output %s has no digest", o.Name)
		}
	}
	if fin.PlanCacheHit {
		t.Fatal("first submission claims a plan cache hit")
	}

	// Identical resubmission: compile must be served from the cache.
	again := await(t, ts.URL, submit(t, ts.URL, req).ID)
	if again.State != StateSucceeded {
		t.Fatalf("resubmission failed: %s", again.Error)
	}
	if !again.PlanCacheHit {
		t.Fatal("resubmission missed the plan cache")
	}
	if again.Result.Outputs[0].SHA256 != fin.Result.Outputs[0].SHA256 {
		t.Fatal("resubmission with the same seed is not bit-identical")
	}

	var stats Stats
	if err := getJSON(http.DefaultClient, ts.URL+"/v1/stats", &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.PlanHits == 0 {
		t.Fatalf("stats show no plan cache hits: %+v", stats.Cache)
	}
	if len(stats.Tenants) != 1 || stats.Tenants[0].Tenant != "acme" || stats.Tenants[0].Completed != 2 {
		t.Fatalf("tenant stats %+v", stats.Tenants)
	}
}

// TestServerValidation walks the 4xx admission paths, and admits what the
// request table admits.
func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 8})
	cases := []struct {
		name string
		req  SubmitRequest
		code int
	}{
		{"no tenant", SubmitRequest{Program: gnmfSource()}, 400},
		{"no program", SubmitRequest{Tenant: "a"}, 400},
		{"parse error", SubmitRequest{Tenant: "a", Program: "not a program"}, 400},
		// Two billion iterations in 50 bytes: refused before it unrolls.
		{"loop bomb", SubmitRequest{Tenant: "a", Program: "input A 2 2\nfor i in 1:2000000000 {\nA = A\n}\noutput A"}, 400},
		{"too many nodes", SubmitRequest{Tenant: "a", Program: gnmfSource(), Nodes: 9}, 400},
		{"negative nodes", SubmitRequest{Tenant: "a", Program: gnmfSource(), Nodes: -1}, 400},
		{"wrong machine", SubmitRequest{Tenant: "a", Program: gnmfSource(), Machine: "c1.xlarge"}, 400},
		{"deadline and budget", SubmitRequest{Tenant: "a", Program: gnmfSource(),
			Optimize: true, DeadlineSec: 60, BudgetDollars: 1}, 400},
		{"negative deadline", SubmitRequest{Tenant: "a", Program: gnmfSource(), Optimize: true, DeadlineSec: -5}, 400},
		{"negative budget", SubmitRequest{Tenant: "a", Program: gnmfSource(), Optimize: true, BudgetDollars: -5}, 400},
		{"confidence under a budget", SubmitRequest{Tenant: "a", Program: gnmfSource(),
			Optimize: true, BudgetDollars: 1, Confidence: 0.9}, 400},
		{"negative max nodes", SubmitRequest{Tenant: "a", Program: gnmfSource(), Optimize: true, MaxNodes: -3}, 400},
		{"negative checkpoint", SubmitRequest{Tenant: "a", Program: gnmfSource(), CheckpointEvery: -2}, 400},
		{"negative tile", SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: -4}, 400},
		{"negative slots", SubmitRequest{Tenant: "a", Program: gnmfSource(), Slots: -1}, 400},
		{"explain without optimize", SubmitRequest{Tenant: "a", Program: gnmfSource(), Explain: true}, 400},
		{"bad chaos", SubmitRequest{Tenant: "a", Program: gnmfSource(), Chaos: "taskfault=2.5"}, 400},
		// A negative retry budget means no retries, as in cumulon.
		{"no retries", SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Density: 0.4, Nodes: 4, MaxRetries: -1}, 202},
		// A 2 MiB body: refused once the decoder has read maxSubmitBytes,
		// whatever it holds.
		{"oversized body", SubmitRequest{Tenant: "a", Program: strings.Repeat("# padding\n", 2<<20/10)}, 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, _ := json.Marshal(tc.req)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.code, body)
			}
			if tc.code == http.StatusAccepted {
				return
			}
			var e struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(body, &e) != nil || e.Error == "" {
				t.Fatalf("error body not JSON: %s", body)
			}
			if tc.code == 413 && !strings.Contains(e.Error, "1048576-byte limit") {
				t.Fatalf("413 does not state the limit: %s", e.Error)
			}
			if tc.name == "loop bomb" && !strings.Contains(e.Error, "2000000000 x 1 statements") {
				t.Fatalf("loop refusal does not state the count: %s", e.Error)
			}
		})
	}
	// None of the refusals cost the server anything: it still runs a job.
	st := submit(t, ts.URL, SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Density: 0.4, Nodes: 4})
	if fin := await(t, ts.URL, st.ID); fin.State != StateSucceeded {
		t.Fatalf("job after the refused submissions: %s %s", fin.State, fin.Error)
	}
}

// TestAdmissionRejectsDensityOutOfRange: a density outside (0, 1], or a
// confidence outside [0, 1), is refused at admission with a one-line error,
// so it never reaches the plan or deployment cache, where each raw value
// would search or compile the same thing into an entry of its own. Density
// 0 is unset and takes the default; confidence 0 is the point estimate.
func TestAdmissionRejectsDensityOutOfRange(t *testing.T) {
	s, ts := newTestServer(t, Config{Nodes: 8})
	for _, tc := range []struct {
		density, confidence float64
		want                string
	}{
		{-1, 0, "density must be in (0, 1]"},
		{2, 0, "density must be in (0, 1]"},
		{1e300, 0, "density must be in (0, 1]"},
		{math.NaN(), 0, "density must be in (0, 1]"},
		{0, -5, "confidence must be 0 or in (0, 1)"},
		{0, 1, "confidence must be 0 or in (0, 1)"},
		{0, 95, "confidence must be 0 or in (0, 1)"},
		{0, math.NaN(), "confidence must be 0 or in (0, 1)"},
	} {
		_, err := s.Submit(SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 4,
			Density: tc.density, Confidence: tc.confidence, DeadlineSec: 600})
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Fatalf("density %g, confidence %g: error %v, want a one-line %q refusal", tc.density, tc.confidence, err, tc.want)
		}
	}
	for _, d := range []float64{0, 1} {
		st := submit(t, ts.URL, SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 4, Density: d})
		if fin := await(t, ts.URL, st.ID); fin.State != StateSucceeded {
			t.Fatalf("density %g: %s %s", d, fin.State, fin.Error)
		}
	}
	if n := s.cache.Stats().Entries; n != 2 {
		t.Fatalf("plan cache holds %d entries, want 2 (densities 0.05 and 1)", n)
	}
}

// TestServerCancel: queued jobs cancel; running, terminal and unknown
// jobs refuse.
func TestServerCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Nodes: 4})

	// Choke the cluster so the submission stays queued deterministically.
	s.mu.Lock()
	s.freeNodes = 0
	s.mu.Unlock()

	st := submit(t, ts.URL, SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 2})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cancel queued: status %d", resp.StatusCode)
	}
	got, _ := s.Status(st.ID)
	if got.State != StateCanceled {
		t.Fatalf("state %s after cancel, want canceled", got.State)
	}

	// Canceling again conflicts; unknown 404s.
	if _, err := s.Cancel(st.ID); err == nil {
		t.Fatal("double cancel succeeded")
	}
	if _, err := s.Cancel("j-999999"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}

	// Restore capacity; a fresh job must run to completion and then
	// refuse cancellation.
	s.mu.Lock()
	s.freeNodes = s.cfg.Nodes
	s.mu.Unlock()
	s.signal()
	fin := await(t, ts.URL, submit(t, ts.URL, SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 2}).ID)
	if fin.State != StateSucceeded {
		t.Fatalf("job failed: %s", fin.Error)
	}
	if _, err := s.Cancel(fin.ID); err == nil {
		t.Fatal("cancel of terminal job succeeded")
	}
}

// TestServerResultEndpoint: /result 409s while queued and serves the
// terminal status after.
func TestServerResultEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Nodes: 4})
	s.mu.Lock()
	s.freeNodes = 0
	s.mu.Unlock()
	st := submit(t, ts.URL, SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 2})

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result while queued: status %d, want 409", resp.StatusCode)
	}

	s.mu.Lock()
	s.freeNodes = s.cfg.Nodes
	s.mu.Unlock()
	s.signal()
	await(t, ts.URL, st.ID)
	var fin JobStatus
	if err := getJSON(http.DefaultClient, ts.URL+"/v1/jobs/"+st.ID+"/result", &fin); err != nil {
		t.Fatal(err)
	}
	if fin.Result == nil {
		t.Fatal("terminal result endpoint returned no result")
	}
}

// TestServerOptimizedJob: an optimizing submission searches once and
// serves the second identical submission from the deployment cache.
func TestServerOptimizedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 8})
	req := SubmitRequest{
		Tenant: "opt", Program: gnmfSource(),
		Tile: 4, Density: 0.4, Optimize: true, DeadlineSec: 24 * 3600,
	}
	first := await(t, ts.URL, submit(t, ts.URL, req).ID)
	if first.State != StateSucceeded {
		t.Fatalf("optimized job failed: %s", first.Error)
	}
	if first.DeploymentCacheHit {
		t.Fatal("first optimized submission claims a deployment cache hit")
	}
	if first.Nodes <= 0 {
		t.Fatal("optimizer picked no nodes")
	}
	second := submit(t, ts.URL, req)
	if !second.DeploymentCacheHit {
		t.Fatal("second optimized submission missed the deployment cache")
	}
	if second.Nodes != first.Nodes {
		t.Fatalf("cached deployment picked %d nodes, first picked %d", second.Nodes, first.Nodes)
	}
	await(t, ts.URL, second.ID)
}

// TestServerMetricsEndpoints: the text endpoint carries per-tenant
// series; the JSON endpoint is byte-stable across identical reads.
func TestServerMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 8})
	await(t, ts.URL, submit(t, ts.URL, SubmitRequest{Tenant: "acme", Program: gnmfSource(), Tile: 4, Nodes: 4}).ID)

	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	text := get("/metrics")
	for _, want := range []string{
		`cumulond_jobs_submitted_total{tenant="acme"} 1`,
		`cumulond_jobs_completed_total{tenant="acme"} 1`,
		"cumulond_plan_cache_misses 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	j1 := get("/metrics.json")
	j2 := get("/metrics.json")
	if j1 != j2 {
		t.Fatal("/metrics.json not byte-stable across identical reads")
	}
	if !json.Valid([]byte(j1)) {
		t.Fatal("/metrics.json is not valid JSON")
	}
}

// TestServerConcurrentSubmissions hammers Submit from many goroutines
// (exercised under -race in CI) and checks every job lands.
func TestServerConcurrentSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Config{Nodes: 8})
	const n = 24
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := submit(t, ts.URL, SubmitRequest{
				Tenant: []string{"a", "b", "c"}[i%3], Program: gnmfSource(),
				Tile: 4, Nodes: 2,
			})
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range ids {
		if id == "" || seen[id] {
			t.Fatalf("duplicate or empty job ID %q", id)
		}
		seen[id] = true
		if st := await(t, ts.URL, id); st.State != StateSucceeded {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	if got := len(listAll(s)); got != n {
		t.Fatalf("list has %d jobs, want %d", got, n)
	}
}

// TestServerAcceptance3x4 is the issue's acceptance run: 3 tenants × 4
// clients through the load generator against an in-process server. All
// jobs complete, nobody starves, per-tenant metrics exist, the report's
// e2e quantiles are the ones the server's histograms give, and the plan
// cache hits on repeated programs.
func TestServerAcceptance3x4(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Nodes: 8,
		Sched: SchedConfig{Weights: map[string]float64{"analytics": 2}},
	})
	specJSON := `{
	  "seed": 42,
	  "max_wait_sec": 60,
	  "poll_ms": 2,
	  "tenants": [
	    {"name": "analytics", "clients": 4, "jobs_per_client": 2, "mean_gap_ms": 2,
	     "mix": [{"workload": "gnmf", "m": 24, "n": 18, "r": 3, "iters": 1, "density": 0.4, "tile": 4, "nodes": 4}]},
	    {"name": "reporting", "clients": 4, "jobs_per_client": 2, "mean_gap_ms": 2, "priority": 1,
	     "mix": [{"workload": "regression", "m": 48, "n": 8, "iters": 1, "tile": 8, "nodes": 2}]},
	    {"name": "adhoc", "clients": 4, "jobs_per_client": 2, "mean_gap_ms": 4,
	     "mix": [{"workload": "matmul", "m": 32, "k": 24, "n": 32, "tile": 8, "nodes": 2}]}
	  ]
	}`
	spec, err := ParseLoadSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(ts.URL, spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Write(&buf)
	t.Logf("load report:\n%s", buf.String())

	if err := rep.Healthy(true); err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 3 {
		t.Fatalf("report covers %d tenants, want 3", len(rep.Tenants))
	}
	oracle := e2eQuantiles(t, s)
	for _, tr := range rep.Tenants {
		got := [3]float64{tr.P50Sec, tr.P95Sec, tr.P99Sec}
		if got[0] <= 0 || got != oracle[tr.Tenant] {
			t.Fatalf("tenant %s: e2e p50/p95/p99 %v, want > 0 and the /metrics.json histogram's %v",
				tr.Tenant, got, oracle[tr.Tenant])
		}
		if tr.Submitted != 8 || tr.Completed != 8 {
			t.Fatalf("tenant %s: %d submitted, %d completed, want 8/8", tr.Tenant, tr.Submitted, tr.Completed)
		}
		if tr.MaxWaitSec > spec.MaxWaitSec {
			t.Fatalf("tenant %s max wait %.1fs exceeds bound %.0fs", tr.Tenant, tr.MaxWaitSec, spec.MaxWaitSec)
		}
	}

	// Per-tenant metrics must be visible in the obs registry output.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, tenant := range []string{"analytics", "reporting", "adhoc"} {
		if !strings.Contains(string(metrics), `cumulond_jobs_completed_total{tenant="`+tenant+`"} 8`) {
			t.Fatalf("metrics missing completed=8 for tenant %s:\n%s", tenant, metrics)
		}
	}
}
