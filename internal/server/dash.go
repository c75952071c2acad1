package server

import (
	"html/template"
	"net/http"
	"strconv"
)

// dashData is the template input for /debug/dash: the server's stats,
// each tenant's nonempty e2e histogram and the newest jobs, all read under
// one hold of s.mu.
type dashData struct {
	Stats
	Bars map[string][]dashBucket // by tenant
	Jobs []JobStatus
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
// numbers are the ones /v1/stats and /metrics.json serve.
func (s *Server) handleDash(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	d := dashData{Stats: s.stats(), Bars: map[string][]dashBucket{}}
	for tenant, ts := range s.tenantHists {
		if bars := dashBuckets(ts); bars != nil {
			d.Bars[tenant] = bars
		}
	}
	for i := len(s.store.order) - 1; i >= 0 && len(d.Jobs) < 20; i-- {
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
&middot; {{.JobsPruned}} jobs pruned</p>
<h2>tenants</h2>
<table><tr><th>tenant</th><th>weight</th><th>service</th><th>debt</th>
<th>queue p50</th><th>queue p95</th><th>e2e p50</th><th>e2e p95</th><th>e2e p99</th></tr>
{{range .Tenants}}<tr><td>{{.Tenant}}</td><td>{{printf "%.1f" .Weight}}</td>
<td>{{printf "%.1f" .Service}}</td><td>{{printf "%.1f" .Debt}}</td>
<td>{{printf "%.3fs" .QueueP50}}</td><td>{{printf "%.3fs" .QueueP95}}</td>
<td>{{printf "%.3fs" .E2EP50}}</td><td>{{printf "%.3fs" .E2EP95}}</td><td>{{printf "%.3fs" .E2EP99}}</td></tr>
{{end}}</table>
{{range $tenant, $bars := .Bars}}
<h2>e2e latency &middot; {{$tenant}}</h2>
<table>{{range $bars}}<tr><td>&le; {{.Label}}s</td>
<td style="text-align:left;border:none;min-width:20em"><span class="bar" style="width:{{printf "%.0f" .Pct}}%"></span> {{.Count}}</td></tr>
{{end}}</table>
{{end}}
<h2>recent jobs</h2>
<table><tr><th>id</th><th>tenant</th><th>state</th><th>nodes</th><th>queue s</th><th>run s</th><th>cluster</th></tr>
{{range .Jobs}}<tr><td>{{.ID}}</td><td>{{.Tenant}}</td><td class="{{.State}}">{{.State}}</td>
<td>{{.Nodes}}</td><td>{{printf "%.3f" .QueueWaitSec}}</td><td>{{printf "%.3f" .RunSec}}</td><td>{{.Cluster}}</td></tr>
{{end}}</table>
<p><small>auto-refreshes every 2s &middot; data also at /metrics and /metrics.json</small></p>
</body></html>
`))
