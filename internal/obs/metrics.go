package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Label is one metric label pair.
type Label struct{ Key, Value string }

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Metrics keep registration order in the output;
// labeled series within a metric are sorted for determinism.
type Registry struct {
	metrics []*metric
	byName  map[string]*metric
}

type metric struct {
	name, help, typ string
	samples         map[string]float64 // label-string -> value
	// histogram state (typ == "histogram")
	buckets []float64              // upper bounds, ascending
	hseries map[string]*HistSeries // label-string -> series (lazy; "" is unlabeled)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: map[string]*metric{}} }

func (r *Registry) metricNamed(name, help, typ string) *metric {
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := &metric{name: name, help: help, typ: typ, samples: map[string]float64{}}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m
}

// Counter declares (or fetches) a monotonically increasing metric.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{m: r.metricNamed(name, help, "counter")}
}

// Gauge declares (or fetches) a point-in-time value metric.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{m: r.metricNamed(name, help, "gauge")}
}

// Histogram declares (or fetches) a distribution metric with the given
// ascending bucket upper bounds (an implicit +Inf bucket is added).
// Series — the unlabeled default and any labeled ones fetched with With
// — materialize lazily on first observation.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	m := r.metricNamed(name, help, "histogram")
	if m.buckets == nil {
		m.buckets = append([]float64(nil), buckets...)
		m.hseries = map[string]*HistSeries{}
	}
	return &Histogram{m: m}
}

// Counter accumulates.
type Counter struct{ m *metric }

// Add increases the series selected by labels by v.
func (c *Counter) Add(v float64, labels ...Label) {
	c.m.samples[labelKey(labels)] += v
}

// Gauge records the latest value.
type Gauge struct{ m *metric }

// Set replaces the series selected by labels with v.
func (g *Gauge) Set(v float64, labels ...Label) {
	g.m.samples[labelKey(labels)] = v
}

// Histogram observes a distribution. A histogram holds one series per
// label set; With returns a series handle whose Observe is
// allocation-free, so hot paths fetch the handle once and record into
// it directly (benchmark-guarded in CI).
type Histogram struct{ m *metric }

// With returns (creating on first use) the series for the label set.
// The lookup builds a label key, so callers on hot paths cache the
// returned handle instead of calling With per observation.
func (h *Histogram) With(labels ...Label) *HistSeries {
	key := labelKey(labels)
	s, ok := h.m.hseries[key]
	if !ok {
		s = &HistSeries{bounds: h.m.buckets, counts: make([]uint64, len(h.m.buckets)+1)}
		h.m.hseries[key] = s
	}
	return s
}

// Observe records one sample into the unlabeled series.
func (h *Histogram) Observe(v float64) { h.With().Observe(v) }

// HistSeries is one labeled series of a Histogram.
type HistSeries struct {
	bounds []float64 // shared with the parent metric
	counts []uint64  // per-bucket (non-cumulative); last is +Inf
	sum    float64
	n      uint64
}

// Observe records one sample. It allocates nothing.
func (s *HistSeries) Observe(v float64) {
	s.sum += v
	s.n++
	for i, ub := range s.bounds {
		if v <= ub {
			s.counts[i]++
			return
		}
	}
	s.counts[len(s.bounds)]++
}

// Buckets returns the bucket upper bounds and a copy of the
// per-bucket (non-cumulative) counts; the extra last count is the +Inf
// bucket.
func (s *HistSeries) Buckets() (bounds []float64, counts []uint64) {
	return s.bounds, append([]uint64(nil), s.counts...)
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts
// by linear interpolation inside the target bucket, Prometheus
// histogram_quantile style. It returns 0 when the series is empty; a
// rank landing in the +Inf bucket returns the largest finite bound.
func (s *HistSeries) Quantile(q float64) float64 {
	cum := make([]uint64, len(s.counts))
	var c uint64
	for i, v := range s.counts {
		c += v
		cum[i] = c
	}
	return QuantileFromBuckets(s.bounds, cum, q)
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + `="` + l.Value + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Write renders the registry in the Prometheus text exposition format.
func (r *Registry) Write(w io.Writer) error {
	for _, m := range r.metrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ); err != nil {
			return err
		}
		if m.typ == "histogram" {
			for _, key := range SortedKeys(m.hseries) {
				s := m.hseries[key]
				// inner is the series' labels ready to prefix the le label:
				// "" for the unlabeled series, `tenant="a",` for `{tenant="a"}`.
				inner := ""
				if key != "" {
					inner = key[1:len(key)-1] + ","
				}
				cum := uint64(0)
				for i, ub := range s.bounds {
					cum += s.counts[i]
					if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", m.name, inner, formatBound(ub), cum); err != nil {
						return err
					}
				}
				cum += s.counts[len(s.bounds)]
				if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n%s_sum%s %s\n%s_count%s %d\n",
					m.name, inner, cum,
					m.name, key, formatValue(s.sum),
					m.name, key, s.n); err != nil {
					return err
				}
			}
			continue
		}
		for _, k := range SortedKeys(m.samples) {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.name, k, formatValue(m.samples[k])); err != nil {
				return err
			}
		}
	}
	return nil
}

// metricJSON is the deterministic JSON rendering of one metric: series
// are a sorted slice, never a map, so encoding is byte-stable across
// runs and across Go map iteration orders.
type metricJSON struct {
	Name    string       `json:"name"`
	Type    string       `json:"type"`
	Help    string       `json:"help"`
	Samples []sampleJSON `json:"samples,omitempty"`
	// Histogram fields (type == "histogram"): the unlabeled series
	// renders at the top level, labeled series under Series.
	Buckets []bucketJSON     `json:"buckets,omitempty"`
	Sum     *float64         `json:"sum,omitempty"`
	Count   *uint64          `json:"count,omitempty"`
	Series  []histSeriesJSON `json:"series,omitempty"`
}

// histSeriesJSON is one labeled histogram series in the JSON export.
type histSeriesJSON struct {
	Labels  string       `json:"labels"`
	Buckets []bucketJSON `json:"buckets"`
	Sum     float64      `json:"sum"`
	Count   uint64       `json:"count"`
}

type sampleJSON struct {
	// Labels is the rendered label set, e.g. `{tenant="acme"}`; empty for
	// the unlabeled series.
	Labels string  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

type bucketJSON struct {
	LE         string `json:"le"` // upper bound ("+Inf" for the last)
	Cumulative uint64 `json:"cumulative"`
}

// WriteJSON renders the registry as deterministic JSON: metrics keep
// registration order, labeled series within a metric are sorted by
// label string, and histograms export cumulative bucket counts. Two
// registries built by the same sequence of operations render
// byte-identically (asserted by a golden test), so the job server can
// serve the output to clients that diff or hash it.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := struct {
		Metrics []metricJSON `json:"metrics"`
	}{Metrics: []metricJSON{}}
	for _, m := range r.metrics {
		mj := metricJSON{Name: m.name, Type: m.typ, Help: m.help}
		if m.typ == "histogram" {
			for _, key := range SortedKeys(m.hseries) {
				s := m.hseries[key]
				if key == "" {
					mj.Buckets = cumulativeBuckets(s)
					sum, n := s.sum, s.n
					mj.Sum, mj.Count = &sum, &n
					continue
				}
				mj.Series = append(mj.Series, histSeriesJSON{
					Labels: key, Buckets: cumulativeBuckets(s), Sum: s.sum, Count: s.n,
				})
			}
		} else {
			for _, k := range SortedKeys(m.samples) {
				mj.Samples = append(mj.Samples, sampleJSON{Labels: k, Value: m.samples[k]})
			}
		}
		out.Metrics = append(out.Metrics, mj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// cumulativeBuckets renders one series' bucket counts cumulatively,
// with the trailing +Inf bucket.
func cumulativeBuckets(s *HistSeries) []bucketJSON {
	out := make([]bucketJSON, 0, len(s.bounds)+1)
	cum := uint64(0)
	for i, ub := range s.bounds {
		cum += s.counts[i]
		out = append(out, bucketJSON{LE: formatBound(ub), Cumulative: cum})
	}
	cum += s.counts[len(s.bounds)]
	return append(out, bucketJSON{LE: "+Inf", Cumulative: cum})
}

// SortedKeys returns a map's keys in sorted order, for deterministic
// rendering.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func formatBound(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 9, 64)
}

// secondsBuckets is the default latency bucketing for virtual-time
// histograms: tasks range from sub-second map chunks to multi-hundred
// second multiply waves.
var secondsBuckets = []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000}

// Snapshot derives the standard metrics registry from a recorded trace:
// run/job/task counts, task-second and queue-wait histograms, byte
// counters by I/O class, flops, retry and locality/cache-hit summaries.
func Snapshot(t *Trace) *Registry {
	r := NewRegistry()
	spans := t.Spans()

	programSec := r.Gauge("cumulon_program_seconds", "end-to-end virtual seconds of the recorded program run(s)")
	jobs := r.Counter("cumulon_jobs_total", "jobs executed")
	tasks := r.Counter("cumulon_tasks_total", "tasks executed")
	retries := r.Counter("cumulon_task_retries_total", "failed task attempts that were retried")
	recoverySec := r.Counter("cumulon_recovery_seconds_total", "virtual time lost to failed attempts and retry backoff")
	taskSec := r.Histogram("cumulon_task_seconds", "task durations in virtual seconds", secondsBuckets)
	queueSec := r.Histogram("cumulon_queue_wait_seconds", "task wait between phase release and start", secondsBuckets)
	readBytes := r.Counter("cumulon_read_bytes_total", "bytes read by I/O class")
	writeBytes := r.Counter("cumulon_write_bytes_total", "bytes written (primary replica)")
	flops := r.Counter("cumulon_flops_total", "floating point operations executed")
	catSec := r.Counter("cumulon_task_category_seconds_total", "task-time attribution by category")
	locality := r.Gauge("cumulon_read_locality_ratio", "fraction of DFS read bytes served node-locally")
	cacheHit := r.Gauge("cumulon_cache_hit_ratio", "fraction of read bytes served from node memory caches")

	var progTotal float64
	var local, rack, remote, cache int64
	for _, s := range spans {
		switch s.Kind {
		case KindProgram:
			progTotal += s.Seconds()
		case KindJob:
			jobs.Add(1)
		case KindTask:
			a := s.Attrs
			tasks.Add(1)
			retries.Add(float64(a.Retries))
			recoverySec.Add(a.RecoverySec)
			taskSec.Observe(s.Seconds())
			queueSec.Observe(a.QueueSec)
			local += a.LocalReadBytes
			rack += a.RackReadBytes
			remote += a.RemoteReadBytes
			cache += a.CacheReadBytes
			writeBytes.Add(float64(a.WriteBytes))
			flops.Add(float64(a.Flops))
			for c := Category(0); c < NumCategories; c++ {
				if v := a.Breakdown[c]; v != 0 {
					catSec.Add(v, Label{"category", c.String()})
				}
			}
		}
	}
	programSec.Set(progTotal)
	readBytes.Add(float64(local), Label{"class", "local"})
	readBytes.Add(float64(rack), Label{"class", "rack"})
	readBytes.Add(float64(remote), Label{"class", "remote"})
	readBytes.Add(float64(cache), Label{"class", "cache"})
	if dfsRead := local + rack + remote; dfsRead > 0 {
		locality.Set(float64(local) / float64(dfsRead))
	}
	if allRead := local + rack + remote + cache; allRead > 0 {
		cacheHit.Set(float64(cache) / float64(allRead))
	}
	return r
}
