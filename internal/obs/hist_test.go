package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestLogBuckets(t *testing.T) {
	got := LogBuckets(-1, 1, 3)
	want := []float64{0.1, 0.215, 0.464, 1, 2.15, 4.64, 10}
	if len(got) != len(want) {
		t.Fatalf("LogBuckets(-1,1,3) = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("buckets not ascending: %v", got)
		}
	}
	if n := len(LatencyBuckets); n != 25 {
		t.Fatalf("LatencyBuckets has %d bounds, want 25", n)
	}
	if lo, hi := LatencyBuckets[0], LatencyBuckets[len(LatencyBuckets)-1]; lo != 1e-5 || hi != 1000 {
		t.Fatalf("LatencyBuckets spans %v..%v, want 1e-05..1000", lo, hi)
	}
	for _, b := range LatencyBuckets {
		if r, _ := strconv.ParseFloat(strconv.FormatFloat(b, 'e', 2, 64), 64); r != b {
			t.Errorf("bound renders as %s: more than three digits", formatBound(b))
		}
	}
}

// TestLatencyBucketsResolveSubMillisecond: the service's stages mostly take
// tens to hundreds of microseconds, so the layout must tell those apart —
// a median is read from the bucket its samples fell in, not interpolated
// across one first bucket that ends at a millisecond.
func TestLatencyBucketsResolveSubMillisecond(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", LatencyBuckets)
	for _, c := range []struct {
		tenant         string
		sample, lo, hi float64
	}{
		{"queue", 30e-6, 21.5e-6, 46.4e-6},
		{"compile", 150e-6, 100e-6, 215e-6},
		{"run", 700e-6, 464e-6, 1e-3},
		{"floor", 2e-6, 0, 10e-6}, // under the first bound: its bucket starts at 0
	} {
		s := h.With(Label{Key: "tenant", Value: c.tenant})
		for i := 0; i < 9; i++ {
			s.Observe(c.sample)
		}
		for _, q := range []float64{0, 0.5, 1} {
			got := s.Quantile(q)
			if got < c.lo || got > c.hi || math.Abs(got-c.lo-(c.hi-c.lo)*q) > 1e-12 {
				t.Errorf("%s: nine samples of %v s: q%v = %v, want %v of the way through (%v, %v]",
					c.tenant, c.sample, q, got, q, c.lo, c.hi)
			}
		}
	}
}

func TestQuantileFromBuckets(t *testing.T) {
	bounds := []float64{1, 2, 4}
	// 10 samples in (0,1], 10 in (1,2], none above.
	cum := []uint64{10, 20, 20, 20}
	if q := QuantileFromBuckets(bounds, cum, 0.5); math.Abs(q-1) > 1e-9 {
		t.Fatalf("p50 = %v, want 1 (rank on the first bucket's upper edge)", q)
	}
	if q := QuantileFromBuckets(bounds, cum, 0.75); math.Abs(q-1.5) > 1e-9 {
		t.Fatalf("p75 = %v, want 1.5 (midway through the second bucket)", q)
	}
	if q := QuantileFromBuckets(bounds, cum, 0.25); math.Abs(q-0.5) > 1e-9 {
		t.Fatalf("p25 = %v, want 0.5", q)
	}
	// Empty histogram.
	if q := QuantileFromBuckets(bounds, []uint64{0, 0, 0, 0}, 0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
	// Everything in +Inf: clamp to the largest finite bound.
	if q := QuantileFromBuckets(bounds, []uint64{0, 0, 0, 5}, 0.5); q != 4 {
		t.Fatalf("overflow quantile = %v, want 4", q)
	}
}

// TestQuantileBoundaries holds BOTH quantile implementations — the
// standalone QuantileFromBuckets and HistSeries.Quantile — to the same
// boundary behavior: empty histograms, single-bucket layouts, leading
// empty buckets, and q ∈ {0, 0.5, 1}. A divergence here means the load
// generator's client-side SLO math disagrees with the server's.
func TestQuantileBoundaries(t *testing.T) {
	type layout struct {
		name    string
		bounds  []float64
		samples []float64 // observed through HistSeries
	}
	layouts := []layout{
		{"empty", []float64{1, 2, 4}, nil},
		{"single-bucket", []float64{2}, []float64{1, 1.5}},
		{"leading-empty", []float64{1, 2, 4, 8}, []float64{3, 3, 5}},
		{"all-first", []float64{1, 2}, []float64{0.5, 0.5, 0.5, 0.5}},
		{"inf-tail", []float64{1, 2}, []float64{0.5, 99}},
	}
	quantiles := []float64{0, 0.5, 1}
	want := map[string][3]float64{
		// q=0 → lower bound of the first nonempty bucket (not a bound
		// fabricated by an empty bucket); q=1 → upper bound of the last
		// nonempty finite bucket (or the largest finite bound when the
		// +Inf bucket holds the rank); q=0.5 interpolates.
		"empty":         {0, 0, 0},
		"single-bucket": {0, 1, 2},
		// leading-empty p50: rank 1.5 with cumulative {0,0,2,3}: bucket
		// (2,4] holds it → 2 + 2*(1.5-0)/2 = 3.5.
		"leading-empty": {2, 3.5, 8},
		"all-first":     {0, 0.5, 1},
		// inf-tail p50: rank 1 lands on the first bucket's upper edge.
		"inf-tail": {0, 1, 2},
	}
	for _, l := range layouts {
		r := NewRegistry()
		s := r.Histogram("q_"+l.name, "boundary test", l.bounds).With()
		for _, v := range l.samples {
			s.Observe(v)
		}
		bounds, counts := s.Buckets()
		cum := make([]uint64, len(counts))
		var c uint64
		for i, v := range counts {
			c += v
			cum[i] = c
		}
		for qi, q := range quantiles {
			fromBuckets := QuantileFromBuckets(bounds, cum, q)
			fromSeries := s.Quantile(q)
			if fromBuckets != fromSeries {
				t.Errorf("%s q=%v: QuantileFromBuckets=%v but HistSeries.Quantile=%v",
					l.name, q, fromBuckets, fromSeries)
			}
			if w := want[l.name][qi]; math.Abs(fromBuckets-w) > 1e-12 {
				t.Errorf("%s q=%v = %v, want %v", l.name, q, fromBuckets, w)
			}
		}
		// Out-of-range q clamps rather than extrapolating.
		if got := QuantileFromBuckets(bounds, cum, -3); got != QuantileFromBuckets(bounds, cum, 0) {
			t.Errorf("%s: q=-3 (%v) does not clamp to q=0 (%v)", l.name, got, QuantileFromBuckets(bounds, cum, 0))
		}
		if got := s.Quantile(7); got != s.Quantile(1) {
			t.Errorf("%s: q=7 (%v) does not clamp to q=1 (%v)", l.name, got, s.Quantile(1))
		}
	}
}

func TestHistSeriesQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4})
	s := h.With(Label{Key: "tenant", Value: "acme"})
	for i := 0; i < 10; i++ {
		s.Observe(0.5) // first bucket
		s.Observe(1.5) // second bucket
	}
	if q := s.Quantile(0.75); math.Abs(q-1.5) > 1e-9 {
		t.Fatalf("p75 = %v, want 1.5", q)
	}
	if s.n != 20 || math.Abs(s.sum-20) > 1e-9 {
		t.Fatalf("count/sum = %d/%v, want 20/20", s.n, s.sum)
	}
}

// buildHistRegistry populates per-tenant histogram series with the same
// samples in different orders, so the byte-stability tests prove the
// renderers sort series rather than echo insertion order.
func buildHistRegistry(variant int) *Registry {
	r := NewRegistry()
	h := r.Histogram("e2e_seconds", "end-to-end latency", []float64{0.1, 1, 10})
	tenants := []string{"acme", "zeta", "mid"}
	if variant%2 == 1 {
		tenants = []string{"zeta", "mid", "acme"}
	}
	samples := map[string][]float64{
		"acme": {0.05, 0.5, 5},
		"zeta": {50, 0.5},
		"mid":  {0.5},
	}
	for _, tn := range tenants {
		s := h.With(Label{Key: "tenant", Value: tn})
		obs := samples[tn]
		if variant%2 == 1 {
			for i := len(obs) - 1; i >= 0; i-- {
				s.Observe(obs[i])
			}
		} else {
			for _, v := range obs {
				s.Observe(v)
			}
		}
	}
	// An unlabeled observation too, so both shapes coexist.
	h.Observe(0.3)
	return r
}

// TestLabeledHistogramTextRendering pins the Prometheus text format of
// labeled histogram series: le merged after the series labels, one
// sum/count per series, unlabeled series first.
func TestLabeledHistogramTextRendering(t *testing.T) {
	var sb strings.Builder
	if err := buildHistRegistry(0).Write(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP e2e_seconds end-to-end latency
# TYPE e2e_seconds histogram
e2e_seconds_bucket{le="0.1"} 0
e2e_seconds_bucket{le="1"} 1
e2e_seconds_bucket{le="10"} 1
e2e_seconds_bucket{le="+Inf"} 1
e2e_seconds_sum 0.3
e2e_seconds_count 1
e2e_seconds_bucket{tenant="acme",le="0.1"} 1
e2e_seconds_bucket{tenant="acme",le="1"} 2
e2e_seconds_bucket{tenant="acme",le="10"} 3
e2e_seconds_bucket{tenant="acme",le="+Inf"} 3
e2e_seconds_sum{tenant="acme"} 5.55
e2e_seconds_count{tenant="acme"} 3
e2e_seconds_bucket{tenant="mid",le="0.1"} 0
e2e_seconds_bucket{tenant="mid",le="1"} 1
e2e_seconds_bucket{tenant="mid",le="10"} 1
e2e_seconds_bucket{tenant="mid",le="+Inf"} 1
e2e_seconds_sum{tenant="mid"} 0.5
e2e_seconds_count{tenant="mid"} 1
e2e_seconds_bucket{tenant="zeta",le="0.1"} 0
e2e_seconds_bucket{tenant="zeta",le="1"} 1
e2e_seconds_bucket{tenant="zeta",le="10"} 1
e2e_seconds_bucket{tenant="zeta",le="+Inf"} 2
e2e_seconds_sum{tenant="zeta"} 50.5
e2e_seconds_count{tenant="zeta"} 2
`
	if got != want {
		t.Fatalf("labeled histogram text mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLabeledHistogramByteStable: text and JSON renderings must be
// byte-identical for identically populated registries regardless of
// series creation order and observation order.
func TestLabeledHistogramByteStable(t *testing.T) {
	var ta, tb, ja, jb bytes.Buffer
	if err := buildHistRegistry(0).Write(&ta); err != nil {
		t.Fatal(err)
	}
	if err := buildHistRegistry(1).Write(&tb); err != nil {
		t.Fatal(err)
	}
	if ta.String() != tb.String() {
		t.Fatalf("text rendering depends on insertion order:\nA:\n%s\nB:\n%s", ta.String(), tb.String())
	}
	if err := buildHistRegistry(0).WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := buildHistRegistry(1).WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Fatalf("JSON rendering depends on insertion order:\nA:\n%s\nB:\n%s", ja.String(), jb.String())
	}
	if !json.Valid(ja.Bytes()) {
		t.Fatalf("WriteJSON emitted invalid JSON:\n%s", ja.String())
	}
	// The labeled series must round-trip through the documented shape.
	var dump struct {
		Metrics []struct {
			Name   string `json:"name"`
			Series []struct {
				Labels  string `json:"labels"`
				Buckets []struct {
					LE         string `json:"le"`
					Cumulative uint64 `json:"cumulative"`
				} `json:"buckets"`
				Count uint64 `json:"count"`
			} `json:"series"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(ja.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Metrics) != 1 || len(dump.Metrics[0].Series) != 3 {
		t.Fatalf("JSON export lost series: %+v", dump)
	}
	if got := dump.Metrics[0].Series[0].Labels; got != `{tenant="acme"}` {
		t.Fatalf("series not sorted by label: first is %q", got)
	}
}

// BenchmarkHistogramObserve guards the histogram record path: observing
// into a cached series handle must not allocate (CI greps allocs/op).
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", LatencyBuckets)
	s := h.With(Label{Key: "tenant", Value: "bench"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(float64(i%1000) / 250.0)
	}
}
