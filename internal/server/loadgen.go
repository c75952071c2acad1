package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"cumulon/internal/workloads"
)

// LoadSpec is the declarative input of the cumulon-load traffic
// generator (modeled on Pachyderm's etc/testing/loads specs): N tenants
// × M clients × a weighted program mix × a seeded arrival process. The
// same spec and seed submit the same programs in the same per-client
// order, so load runs are comparable across server builds.
type LoadSpec struct {
	// Seed drives every random choice (arrival gaps, mix picks).
	Seed int64 `json:"seed"`
	// MaxWaitSec is the starvation bound: the run fails if any job waits
	// longer than this between admission and start (default 120).
	MaxWaitSec float64 `json:"max_wait_sec,omitempty"`
	// PollMs is the status poll interval (default 10).
	PollMs int `json:"poll_ms,omitempty"`
	// Tail makes clients consume each job's event stream (long-poll
	// /v1/jobs/{id}/events) to completion instead of polling status.
	Tail bool `json:"tail,omitempty"`
	// JobTimeoutSec bounds one job's submit-to-terminal wall time
	// (default 300).
	JobTimeoutSec float64      `json:"job_timeout_sec,omitempty"`
	Tenants       []TenantLoad `json:"tenants"`
}

// TenantLoad is one tenant's traffic.
type TenantLoad struct {
	Name string `json:"name"`
	// Clients is the number of concurrent closed-loop clients (each
	// submits a job, waits for it to finish, sleeps a gap, repeats).
	Clients int `json:"clients"`
	// JobsPerClient is how many jobs each client submits (default 1).
	JobsPerClient int `json:"jobs_per_client,omitempty"`
	// MeanGapMs is the mean of the exponential think time between a
	// client's jobs (default 20).
	MeanGapMs float64 `json:"mean_gap_ms,omitempty"`
	// Priority applies to every job of this tenant.
	Priority float64 `json:"priority,omitempty"`
	// Mix is the weighted program mix clients draw from. Required.
	Mix []LoadJob `json:"mix"`
}

// LoadJob is one entry of a tenant's program mix: either a named
// built-in workload with its shape parameters, or raw program source.
type LoadJob struct {
	// Workload names a built-in: gnmf, gnmfkl, rsvd, regression,
	// pagerank, matmul; or "source" to submit Source verbatim.
	Workload string `json:"workload"`
	Source   string `json:"source,omitempty"`
	// Weight is the mix weight (default 1).
	Weight float64 `json:"weight,omitempty"`

	// Shape parameters (workload-specific; zero picks a small default).
	M           int     `json:"m,omitempty"`
	N           int     `json:"n,omitempty"`
	R           int     `json:"r,omitempty"`
	K           int     `json:"k,omitempty"`
	Iters       int     `json:"iters,omitempty"`
	Power       int     `json:"power,omitempty"`
	Density     float64 `json:"density,omitempty"`
	Alpha       float64 `json:"alpha,omitempty"`
	Tile        int     `json:"tile,omitempty"`
	Nodes       int     `json:"nodes,omitempty"`
	Slots       int     `json:"slots,omitempty"`
	Materialize bool    `json:"materialize,omitempty"`
	Seed        int64   `json:"seed,omitempty"`

	Optimize      bool    `json:"optimize,omitempty"`
	DeadlineSec   float64 `json:"deadline_sec,omitempty"`
	BudgetDollars float64 `json:"budget_dollars,omitempty"`
}

// ParseLoadSpec decodes and validates a JSON load spec.
func ParseLoadSpec(data []byte) (*LoadSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec LoadSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("load spec: %w", err)
	}
	if len(spec.Tenants) == 0 {
		return nil, fmt.Errorf("load spec: no tenants")
	}
	if spec.MaxWaitSec <= 0 {
		spec.MaxWaitSec = 120
	}
	if spec.PollMs <= 0 {
		spec.PollMs = 10
	}
	if spec.JobTimeoutSec <= 0 {
		spec.JobTimeoutSec = 300
	}
	for i := range spec.Tenants {
		t := &spec.Tenants[i]
		if t.Name == "" {
			return nil, fmt.Errorf("load spec: tenant %d has no name", i)
		}
		if t.Clients <= 0 {
			t.Clients = 1
		}
		if t.JobsPerClient <= 0 {
			t.JobsPerClient = 1
		}
		if t.MeanGapMs <= 0 {
			t.MeanGapMs = 20
		}
		if len(t.Mix) == 0 {
			return nil, fmt.Errorf("load spec: tenant %s has an empty mix", t.Name)
		}
		for j := range t.Mix {
			// The server's rules, without its defaults: an entry that every
			// submission would get refused fails here, once.
			req, err := t.Mix[j].submitRequest(t.Name, t.Priority)
			if err == nil {
				err = req.Normalize(Config{})
			}
			if err != nil {
				return nil, fmt.Errorf("load spec: tenant %s mix[%d]: %w", t.Name, j, err)
			}
		}
	}
	return &spec, nil
}

// buildProgram renders the mix entry to program source. Density is the
// request's planning hint, not part of the text.
func (lj LoadJob) buildProgram() (string, error) {
	alpha := lj.Alpha
	if alpha <= 0 {
		alpha = 0.85
	}
	switch lj.Workload {
	case "source":
		if lj.Source == "" {
			return "", fmt.Errorf("workload \"source\" needs a source field")
		}
		return lj.Source, nil
	case "gnmf":
		return workloads.GNMF(pickInt(lj.M, 48), pickInt(lj.N, 36), pickInt(lj.R, 4), pickInt(lj.Iters, 1), lj.Density).Prog.String(), nil
	case "gnmfkl":
		return workloads.GNMFKL(pickInt(lj.M, 48), pickInt(lj.N, 36), pickInt(lj.R, 4), pickInt(lj.Iters, 1), lj.Density).Prog.String(), nil
	case "rsvd":
		return workloads.RSVD(pickInt(lj.M, 64), pickInt(lj.N, 48), pickInt(lj.K, 8), pickInt(lj.Power, 1)).Prog.String(), nil
	case "regression":
		return workloads.Regression(pickInt(lj.M, 64), pickInt(lj.N, 16), pickInt(lj.Iters, 2), 0.01).Prog.String(), nil
	case "pagerank":
		return workloads.PageRank(pickInt(lj.N, 64), pickInt(lj.Iters, 2), lj.Density, alpha).Prog.String(), nil
	case "matmul":
		return workloads.MatMul(pickInt(lj.M, 64), pickInt(lj.K, 48), pickInt(lj.N, 64)).Prog.String(), nil
	default:
		return "", fmt.Errorf("unknown workload %q (want gnmf, gnmfkl, rsvd, regression, pagerank, matmul or source)", lj.Workload)
	}
}

// submitRequest renders the mix entry to the server's submit body.
func (lj LoadJob) submitRequest(tenant string, priority float64) (SubmitRequest, error) {
	src, err := lj.buildProgram()
	if err != nil {
		return SubmitRequest{}, err
	}
	if lj.Tile == 0 {
		lj.Tile = 16 // the built-ins are small
	}
	return SubmitRequest{
		Tenant: tenant, Program: src, Priority: priority,
		Tile: lj.Tile, Density: lj.Density,
		Nodes: lj.Nodes, Slots: lj.Slots,
		Materialize: lj.Materialize, Seed: lj.Seed,
		Optimize: lj.Optimize, DeadlineSec: lj.DeadlineSec, BudgetDollars: lj.BudgetDollars,
	}, nil
}

func pickInt(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// JobOutcome is one submitted job as the load generator saw it.
type JobOutcome struct {
	Tenant  string
	ID      string
	State   JobState
	WaitSec float64
	Error   string
}

// TenantReport aggregates one tenant's outcomes.
type TenantReport struct {
	Tenant    string `json:"tenant"`
	Submitted int    `json:"submitted"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	// Canceled counts jobs that ended canceled: an explicit client (or
	// operator) action, not a server error, so they are tallied apart
	// from failures — but they still mean the run did not complete
	// everything.
	Canceled    int     `json:"canceled"`
	MaxWaitSec  float64 `json:"max_wait_sec"`
	MeanWaitSec float64 `json:"mean_wait_sec"`
	// ServiceShare is the tenant's fraction of all service charged;
	// WeightShare is the fraction its weight entitles it to under
	// saturation. Comparable when all tenants keep the cluster busy.
	ServiceShare float64 `json:"service_share"`
	WeightShare  float64 `json:"weight_share"`
	// E2E latency quantiles (seconds) as the tenant's /v1/stats row
	// reports them from its cumulond_e2e_seconds histogram, so CI can
	// assert SLOs on the numbers the server serves.
	P50Sec float64 `json:"e2e_p50_sec"`
	P95Sec float64 `json:"e2e_p95_sec"`
	P99Sec float64 `json:"e2e_p99_sec"`
}

// LoadReport is the result of one load run.
type LoadReport struct {
	DurationSec float64        `json:"duration_sec"`
	Tenants     []TenantReport `json:"tenants"`
	Cache       CacheStats     `json:"cache"`
	// AllCompleted is true when every submitted job succeeded (a failed
	// or canceled job clears it).
	AllCompleted bool `json:"all_completed"`
	// Starved lists jobs whose admission-to-start wait exceeded the
	// spec's MaxWaitSec bound.
	Starved []JobOutcome `json:"-"`
}

// RunLoad drives the server at baseURL with the spec's traffic and
// returns the per-tenant report. It is used both by cmd/cumulon-load
// and by the server's end-to-end tests (against httptest servers).
func RunLoad(baseURL string, spec *LoadSpec) (*LoadReport, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	var mu sync.Mutex
	var outcomes []JobOutcome
	var wg sync.WaitGroup
	for ti := range spec.Tenants {
		t := spec.Tenants[ti]
		for ci := 0; ci < t.Clients; ci++ {
			wg.Add(1)
			go func(ti, ci int, t TenantLoad) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(spec.Seed + int64(ti)*1009 + int64(ci)*9176))
				for k := 0; k < t.JobsPerClient; k++ {
					gap := time.Duration(rng.ExpFloat64()*t.MeanGapMs) * time.Millisecond
					time.Sleep(gap)
					lj := pickMix(t.Mix, rng)
					out := runOne(client, baseURL, lj, t, spec)
					mu.Lock()
					outcomes = append(outcomes, out)
					mu.Unlock()
				}
			}(ti, ci, t)
		}
	}
	wg.Wait()

	rep := &LoadReport{DurationSec: time.Since(start).Seconds()}
	var stats Stats
	if err := getJSON(client, baseURL+"/v1/stats", &stats); err != nil {
		return nil, err
	}
	rep.Cache = stats.Cache

	var totalService, totalWeight float64
	row := map[string]TenantStats{}
	for _, ts := range stats.Tenants {
		row[ts.Tenant] = ts
		totalService += ts.Service
		totalWeight += ts.Weight
	}
	reports, starved, allCompleted := aggregateOutcomes(outcomes, spec.MaxWaitSec)
	rep.Starved = starved
	rep.AllCompleted = allCompleted
	for _, tr := range reports {
		ts := row[tr.Tenant]
		if totalService > 0 {
			tr.ServiceShare = ts.Service / totalService
		}
		if totalWeight > 0 {
			tr.WeightShare = ts.Weight / totalWeight
		}
		tr.P50Sec, tr.P95Sec, tr.P99Sec = ts.E2EP50, ts.E2EP95, ts.E2EP99
		rep.Tenants = append(rep.Tenants, *tr)
	}
	return rep, nil
}

// aggregateOutcomes folds job outcomes into per-tenant reports (sorted
// by tenant name, waits averaged) plus the jobs that starved past
// maxWaitSec. Succeeded jobs count as Completed, canceled jobs as
// Canceled, everything else as Failed; allCompleted holds only when
// every job succeeded.
func aggregateOutcomes(outcomes []JobOutcome, maxWaitSec float64) (reports []*TenantReport, starved []JobOutcome, allCompleted bool) {
	allCompleted = true
	byTenant := map[string]*TenantReport{}
	var names []string
	for _, o := range outcomes {
		tr := byTenant[o.Tenant]
		if tr == nil {
			tr = &TenantReport{Tenant: o.Tenant}
			byTenant[o.Tenant] = tr
			names = append(names, o.Tenant)
		}
		tr.Submitted++
		switch o.State {
		case StateSucceeded:
			tr.Completed++
		case StateCanceled:
			tr.Canceled++
			allCompleted = false
		default:
			tr.Failed++
			allCompleted = false
		}
		tr.MeanWaitSec += o.WaitSec
		if o.WaitSec > tr.MaxWaitSec {
			tr.MaxWaitSec = o.WaitSec
		}
		if o.WaitSec > maxWaitSec {
			starved = append(starved, o)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		tr := byTenant[n]
		if tr.Submitted > 0 {
			tr.MeanWaitSec /= float64(tr.Submitted)
		}
		reports = append(reports, tr)
	}
	return reports, starved, allCompleted
}

// pickMix draws one mix entry by weight.
func pickMix(mix []LoadJob, rng *rand.Rand) LoadJob {
	total := 0.0
	for _, m := range mix {
		w := m.Weight
		if w <= 0 {
			w = 1
		}
		total += w
	}
	x := rng.Float64() * total
	for _, m := range mix {
		w := m.Weight
		if w <= 0 {
			w = 1
		}
		if x < w {
			return m
		}
		x -= w
	}
	return mix[len(mix)-1]
}

// runOne submits one job and polls it to a terminal state.
func runOne(client *http.Client, baseURL string, lj LoadJob, t TenantLoad, spec *LoadSpec) JobOutcome {
	out := JobOutcome{Tenant: t.Name}
	req, err := lj.submitRequest(t.Name, t.Priority)
	if err != nil {
		out.State, out.Error = StateFailed, err.Error()
		return out
	}
	var st JobStatus
	if err := postJSON(client, baseURL+"/v1/jobs", req, &st); err != nil {
		out.State, out.Error = StateFailed, err.Error()
		return out
	}
	out.ID = st.ID
	deadline := time.Now().Add(time.Duration(spec.JobTimeoutSec * float64(time.Second)))
	if spec.Tail {
		if err := tailEvents(client, baseURL, st.ID, deadline); err != nil {
			out.State, out.Error = StateFailed, err.Error()
			return out
		}
		// The stream is complete; one status fetch gets the outcome.
		if err := getJSON(client, baseURL+"/v1/jobs/"+st.ID, &st); err != nil {
			out.State, out.Error = StateFailed, err.Error()
			return out
		}
	}
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			out.State, out.Error = StateFailed, fmt.Sprintf("job %s timed out after %.0fs in state %s", st.ID, spec.JobTimeoutSec, st.State)
			return out
		}
		time.Sleep(time.Duration(spec.PollMs) * time.Millisecond)
		if err := getJSON(client, baseURL+"/v1/jobs/"+st.ID, &st); err != nil {
			out.State, out.Error = StateFailed, err.Error()
			return out
		}
	}
	out.State = st.State
	out.WaitSec = st.QueueWaitSec
	out.Error = st.Error
	return out
}

// tailEvents consumes a job's event stream by long-poll until the
// terminal event, verifying the resume contract as it goes: every page
// continues exactly at the cursor the previous page returned.
func tailEvents(client *http.Client, baseURL, id string, deadline time.Time) error {
	since := 0
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s: event stream not done by the job timeout", id)
		}
		var page EventPage
		u := baseURL + "/v1/jobs/" + id + "/events?wait=5&since=" + url.QueryEscape(strconv.Itoa(since))
		if err := getJSON(client, u, &page); err != nil {
			return err
		}
		for _, ev := range page.Events {
			if ev.Seq != since {
				return fmt.Errorf("job %s: event gap: got seq %d at cursor %d", id, ev.Seq, since)
			}
			since++
		}
		if page.Next != since {
			return fmt.Errorf("job %s: server cursor %d disagrees with consumed %d", id, page.Next, since)
		}
		if page.Done {
			return nil
		}
	}
}

func postJSON(client *http.Client, url string, body, into any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, into)
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, into)
}

func decodeResponse(resp *http.Response, into any) error {
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// Write renders the report as a human-readable per-tenant table.
func (r *LoadReport) Write(w io.Writer) error {
	fmt.Fprintf(w, "load run: %.1fs wall\n", r.DurationSec)
	fmt.Fprintf(w, "%-12s %9s %9s %6s %8s %10s %10s %8s %8s %9s %9s\n",
		"tenant", "submitted", "completed", "failed", "canceled", "maxwait(s)", "meanwait(s)", "p50(s)", "p95(s)", "svc-share", "wt-share")
	for _, t := range r.Tenants {
		fmt.Fprintf(w, "%-12s %9d %9d %6d %8d %10.3f %10.3f %8.3f %8.3f %8.1f%% %8.1f%%\n",
			t.Tenant, t.Submitted, t.Completed, t.Failed, t.Canceled,
			t.MaxWaitSec, t.MeanWaitSec, t.P50Sec, t.P95Sec, 100*t.ServiceShare, 100*t.WeightShare)
	}
	fmt.Fprintf(w, "plan cache: %d hits, %d misses; deployment cache: %d hits, %d misses\n",
		r.Cache.PlanHits, r.Cache.PlanMisses, r.Cache.DepHits, r.Cache.DepMisses)
	if len(r.Starved) > 0 {
		fmt.Fprintf(w, "STARVED: %d job(s) exceeded the wait bound:\n", len(r.Starved))
		for _, o := range r.Starved {
			fmt.Fprintf(w, "  %s %s waited %.1fs\n", o.Tenant, o.ID, o.WaitSec)
		}
	}
	if !r.AllCompleted {
		fmt.Fprintln(w, "FAILED or CANCELED jobs present")
	}
	return nil
}

// Healthy reports whether the run completed everything without
// starvation (and optionally with plan-cache hits). Failed jobs are
// reported ahead of canceled ones: a failure is a server-side error
// while a cancellation was asked for, but neither is a completed run.
func (r *LoadReport) Healthy(requireCacheHits bool) error {
	if !r.AllCompleted {
		for _, t := range r.Tenants {
			if t.Failed > 0 {
				return fmt.Errorf("load: tenant %s had %d failed job(s)", t.Tenant, t.Failed)
			}
		}
		for _, t := range r.Tenants {
			if t.Canceled > 0 {
				return fmt.Errorf("load: tenant %s had %d canceled job(s)", t.Tenant, t.Canceled)
			}
		}
		return fmt.Errorf("load: incomplete jobs present")
	}
	if len(r.Starved) > 0 {
		return fmt.Errorf("load: %d job(s) starved past the wait bound", len(r.Starved))
	}
	if requireCacheHits && r.Cache.PlanHits == 0 {
		return fmt.Errorf("load: expected plan cache hits, saw none (misses %d)", r.Cache.PlanMisses)
	}
	return nil
}
