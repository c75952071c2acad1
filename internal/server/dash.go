package server

import (
	"html/template"
	"net/http"
	"strconv"

	"cumulon/internal/obs"
)

// dashData is the template input for /debug/dash, assembled under s.mu.
type dashData struct {
	UptimeSec  float64
	Machine    string
	Capacity   int
	FreeNodes  int
	Running    int
	QueueDepth int
	Cache      CacheStats
	Pruned     int64
	Tenants    []dashTenant
	Jobs       []JobStatus
}

type dashTenant struct {
	Tenant             string
	Weight             float64
	Service            float64
	Debt               float64
	QueueP50, QueueP95 float64
	E2EP50, E2EP95     float64
	E2EP99             float64
	Buckets            []dashBucket
}

// dashBucket is one bar of a tenant's e2e latency histogram (non-cumulative).
type dashBucket struct {
	Label string
	Count uint64
	Pct   float64 // width percentage of the largest bucket
}

// handleDash renders the self-contained ops dashboard: no external
// assets, no JavaScript — plain HTML with inline CSS bars and a meta
// refresh, so it works from curl, air-gapped hosts and CI alike. The
// numbers are the same ones /metrics.json serves.
func (s *Server) handleDash(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	d := dashData{
		UptimeSec: s.now(), Machine: s.cfg.Machine,
		Capacity: s.cfg.Nodes, FreeNodes: s.freeNodes,
		Running: s.running, QueueDepth: s.sched.Depth(),
		Cache:  s.cache.Stats(),
		Pruned: s.store.pruned,
	}
	minNorm := 0.0
	first := true
	for tenant := range s.tenantHists {
		n := s.sched.Service(tenant) / s.sched.Weight(tenant)
		if first || n < minNorm {
			minNorm, first = n, false
		}
	}
	for _, tenant := range obs.SortedKeys(s.tenantHists) {
		ts := s.tenantHists[tenant]
		dt := dashTenant{
			Tenant:   tenant,
			Weight:   s.sched.Weight(tenant),
			Service:  s.sched.Service(tenant),
			Debt:     s.sched.Service(tenant)/s.sched.Weight(tenant) - minNorm,
			QueueP50: ts.queue.Quantile(0.5),
			QueueP95: ts.queue.Quantile(0.95),
			E2EP50:   ts.e2e.Quantile(0.5),
			E2EP95:   ts.e2e.Quantile(0.95),
			E2EP99:   ts.e2e.Quantile(0.99),
			Buckets:  dashBuckets(ts),
		}
		d.Tenants = append(d.Tenants, dt)
	}
	// Recent jobs, newest first.
	n := len(s.store.order)
	lo := n - 20
	if lo < 0 {
		lo = 0
	}
	for i := n - 1; i >= lo; i-- {
		d.Jobs = append(d.Jobs, s.statusOf(s.store.jobs[s.store.order[i]]))
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashTmpl.Execute(w, d); err != nil {
		// Headers are gone; nothing useful left to do.
		return
	}
}

// dashBuckets converts a tenant's e2e histogram into renderable bars,
// trimming empty leading/trailing buckets.
func dashBuckets(ts *tenantSeries) []dashBucket {
	bounds, counts := ts.e2e.Buckets()
	lo, hi := len(counts), -1
	var max uint64
	for i, c := range counts {
		if c > 0 {
			if i < lo {
				lo = i
			}
			hi = i
			if c > max {
				max = c
			}
		}
	}
	if hi < 0 {
		return nil
	}
	out := make([]dashBucket, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		label := "+Inf"
		if i < len(bounds) {
			label = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		out = append(out, dashBucket{
			Label: label,
			Count: counts[i],
			Pct:   100 * float64(counts[i]) / float64(max),
		})
	}
	return out
}

var dashTmpl = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">
<title>cumulond</title>
<style>
body{font-family:monospace;background:#111;color:#ddd;margin:1.5em}
h1{font-size:1.2em}h2{font-size:1em;margin-top:1.5em;color:#9cf}
table{border-collapse:collapse;margin-top:.5em}
td,th{border:1px solid #333;padding:.25em .6em;text-align:right}
th{color:#9cf}td:first-child,th:first-child{text-align:left}
.bar{background:#2a6;display:inline-block;height:.7em}
.queued{color:#fc6}.running{color:#6cf}.succeeded{color:#6f6}.failed{color:#f66}.canceled{color:#999}
small{color:#888}
</style></head><body>
<h1>cumulond &middot; {{.Machine}} &middot; {{printf "%.0f" .UptimeSec}}s up</h1>
<p>nodes {{.FreeNodes}}/{{.Capacity}} free &middot; running {{.Running}} &middot; queued {{.QueueDepth}}
&middot; cache {{.Cache.Entries}} entries ({{.Cache.PlanHits}}+{{.Cache.DepHits}} hits, {{.Cache.Evictions}} evicted)
&middot; {{.Pruned}} jobs pruned</p>
<h2>tenants</h2>
<table><tr><th>tenant</th><th>weight</th><th>service</th><th>debt</th>
<th>queue p50</th><th>queue p95</th><th>e2e p50</th><th>e2e p95</th><th>e2e p99</th></tr>
{{range .Tenants}}<tr><td>{{.Tenant}}</td><td>{{printf "%.1f" .Weight}}</td>
<td>{{printf "%.1f" .Service}}</td><td>{{printf "%.1f" .Debt}}</td>
<td>{{printf "%.3fs" .QueueP50}}</td><td>{{printf "%.3fs" .QueueP95}}</td>
<td>{{printf "%.3fs" .E2EP50}}</td><td>{{printf "%.3fs" .E2EP95}}</td><td>{{printf "%.3fs" .E2EP99}}</td></tr>
{{end}}</table>
{{range .Tenants}}{{if .Buckets}}
<h2>e2e latency &middot; {{.Tenant}}</h2>
<table>{{range .Buckets}}<tr><td>&le; {{.Label}}s</td>
<td style="text-align:left;border:none;min-width:20em"><span class="bar" style="width:{{printf "%.0f" .Pct}}%"></span> {{.Count}}</td></tr>
{{end}}</table>
{{end}}{{end}}
<h2>recent jobs</h2>
<table><tr><th>id</th><th>tenant</th><th>state</th><th>nodes</th><th>queue s</th><th>run s</th><th>cluster</th></tr>
{{range .Jobs}}<tr><td>{{.ID}}</td><td>{{.Tenant}}</td><td class="{{.State}}">{{.State}}</td>
<td>{{.Nodes}}</td><td>{{printf "%.3f" .QueueWaitSec}}</td><td>{{printf "%.3f" .RunSec}}</td><td>{{.Cluster}}</td></tr>
{{end}}</table>
<p><small>auto-refreshes every 2s &middot; data also at /metrics and /metrics.json</small></p>
</body></html>
`))
