package server

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cumulon/internal/obs"
)

// metricsDump is the slice of /metrics.json the tests read: each metric's
// labeled samples and histogram series.
type metricsDump struct {
	Metrics []struct {
		Name    string `json:"name"`
		Samples []struct {
			Labels string  `json:"labels"`
			Value  float64 `json:"value"`
		} `json:"samples"`
		Series []struct {
			Labels  string `json:"labels"`
			Buckets []struct {
				LE         string `json:"le"`
				Cumulative uint64 `json:"cumulative"`
			} `json:"buckets"`
		} `json:"series"`
	} `json:"metrics"`
}

func readMetricsDump(t *testing.T, s *Server) metricsDump {
	t.Helper()
	var d metricsDump
	if err := json.Unmarshal([]byte(metricsText(t, s, "/metrics.json")), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tenantOf extracts the tenant from a label string like `{tenant="acme"}`.
func tenantOf(t *testing.T, labels string) string {
	t.Helper()
	tenant, hasPrefix := strings.CutPrefix(labels, `{tenant="`)
	tenant, hasSuffix := strings.CutSuffix(tenant, `"}`)
	if !hasPrefix || !hasSuffix {
		t.Fatalf("labels %q name no tenant", labels)
	}
	return tenant
}

// e2eQuantiles is the oracle for the per-tenant e2e quantiles the server
// reports: p50/p95/p99 recomputed from /metrics.json's cumulond_e2e_seconds
// bucket series with obs.QuantileFromBuckets.
func e2eQuantiles(t *testing.T, s *Server) map[string][3]float64 {
	t.Helper()
	out := map[string][3]float64{}
	for _, m := range readMetricsDump(t, s).Metrics {
		if m.Name != "cumulond_e2e_seconds" {
			continue
		}
		for _, series := range m.Series {
			var bounds []float64
			var cum []uint64
			for _, b := range series.Buckets {
				if b.LE != "+Inf" {
					v, err := strconv.ParseFloat(b.LE, 64)
					if err != nil {
						t.Fatalf("bad bucket bound %q: %v", b.LE, err)
					}
					bounds = append(bounds, v)
				}
				cum = append(cum, b.Cumulative)
			}
			out[tenantOf(t, series.Labels)] = [3]float64{
				obs.QuantileFromBuckets(bounds, cum, 0.50),
				obs.QuantileFromBuckets(bounds, cum, 0.95),
				obs.QuantileFromBuckets(bounds, cum, 0.99),
			}
		}
	}
	return out
}

// dashTenantRow matches one row of the dashboard's tenants table: tenant,
// weight, service, debt.
var dashTenantRow = regexp.MustCompile(`<tr><td>([^<]*)</td><td>[^<]*</td>\s*<td>[^<]*</td><td>([^<]*)</td>`)

// debtViews reads each tenant's fair-share debt from /v1/stats, from the
// dashboard's tenants table (as it prints it, to one decimal) and from the
// cumulond_fair_share_debt series.
func debtViews(t *testing.T, s *Server) (stats map[string]float64, dash map[string]string, gauge map[string]float64) {
	t.Helper()
	var st struct {
		Tenants []struct {
			Tenant string  `json:"tenant"`
			Debt   float64 `json:"fair_share_debt"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal([]byte(metricsText(t, s, "/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	stats = map[string]float64{}
	for _, row := range st.Tenants {
		stats[row.Tenant] = row.Debt
	}

	page := metricsText(t, s, "/debug/dash")
	_, table, ok := strings.Cut(page, "<h2>tenants</h2>")
	if table, _, ok = strings.Cut(table, "</table>"); !ok {
		t.Fatalf("dashboard has no tenants table:\n%s", page)
	}
	dash = map[string]string{}
	for _, m := range dashTenantRow.FindAllStringSubmatch(table, -1) {
		dash[m[1]] = m[2]
	}

	gauge = map[string]float64{}
	for _, m := range readMetricsDump(t, s).Metrics {
		if m.Name == "cumulond_fair_share_debt" {
			for _, sample := range m.Samples {
				gauge[tenantOf(t, sample.Labels)] = sample.Value
			}
		}
	}
	return stats, dash, gauge
}

// TestStatsViewsAgree: /v1/stats, the dashboard's tenants table and the
// fair-share debt gauges list the same tenants with the same debts — after
// one tenant's jobs are all pruned, and after a reboot on the same state
// directory.
func TestStatsViewsAgree(t *testing.T) {
	cfg := Config{Nodes: 4, JobHistory: 2, StateDir: t.TempDir()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	run := func(tenant string) {
		t.Helper()
		st, err := s.Submit(SubmitRequest{Tenant: tenant, Program: matmulSource(32), Tile: 16, Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		if fin := awaitTerminal(t, s, st.ID); fin.State != StateSucceeded {
			t.Fatalf("job %s: %s (%s)", st.ID, fin.State, fin.Error)
		}
	}
	check := func(step string, tenants ...string) map[string]float64 {
		t.Helper()
		stats, dash, gauge := debtViews(t, s)
		if len(stats) != len(tenants) || len(dash) != len(tenants) || len(gauge) != len(tenants) {
			t.Fatalf("%s: want tenants %v, got /v1/stats %v, dashboard %v, /metrics %v", step, tenants, stats, dash, gauge)
		}
		for _, tenant := range tenants {
			debt, inStats := stats[tenant]
			g, inGauge := gauge[tenant]
			if !inStats || !inGauge || g != debt || dash[tenant] != fmt.Sprintf("%.1f", debt) {
				t.Fatalf("%s: tenant %s: /v1/stats %v, dashboard %v, /metrics %v", step, tenant, stats, dash, gauge)
			}
		}
		return stats
	}

	run("a")
	run("b")
	check("both tenants served", "a", "b")
	run("b")
	run("b")
	debts := check("a's jobs pruned", "a", "b")
	if debts["a"] != 0 || debts["b"] <= 0 {
		t.Fatalf("a served once and b three times, but the debts are %v", debts)
	}
	s.Close()
	if s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	check("rebooted", "b")
}
