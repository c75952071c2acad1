package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call. Spans of one op share Op; Parent is the span that caused it (0 for
// the op's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// sp is a handle on an open span; the zero value is the disabled handle.
type sp struct {
	t  *tracer
	id int
	op int
}

// root opens the root span of op.
func (t *tracer) root(op int, name string) sp { return t.open(0, op, name) }

func (t *tracer) open(parent, op int, name string) sp {
	if t == nil {
		return sp{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: now})
	t.mu.Unlock()
	return sp{t: t, id: id, op: op}
}

// child opens a span caused by s.
func (s sp) child(name string) sp {
	if s.t == nil {
		return sp{}
	}
	return s.t.open(s.id, s.op, name)
}

func (s sp) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id-1].EndNs = now
	s.t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// traceFile is what -trace writes: the raw spans plus the workload they
// came from.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTraceFile(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// selfTimes derives, for every span, its duration minus the part of that
// interval its children cover (children may overlap each other, so their
// union is measured, not their sum).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.EndNs - s.StartNs) - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	at := parent.StartNs
	for _, k := range kids {
		lo, hi := k.StartNs, k.EndNs
		if lo < at {
			lo = at
		}
		if hi > parent.EndNs {
			hi = parent.EndNs
		}
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// layerSummary is the per-layer digest of one traced run that the ledger
// keeps in place of the raw spans.
type layerSummary struct {
	// Ops is the number of traced root spans.
	Ops int `json:"ops"`
	// RootP50Ms is the median root-span duration.
	RootP50Ms float64 `json:"root_p50_ms"`
	// ChildCoverage is the median share of a root span its children cover.
	ChildCoverage float64 `json:"child_coverage"`
	// SpanP50Ms and SelfP50Ms give, per span name, the median duration and
	// the median self time of that span within one op.
	SpanP50Ms map[string]float64 `json:"span_p50_ms"`
	SelfP50Ms map[string]float64 `json:"self_p50_ms"`
}

func summarizeSpans(spans []span) layerSummary {
	self := selfTimes(spans)
	dur := map[string]map[int]float64{}   // name -> op -> total ms
	selfD := map[string]map[int]float64{} // name -> op -> total self ms
	var rootMs, cover []float64
	for _, s := range spans {
		if dur[s.Name] == nil {
			dur[s.Name] = map[int]float64{}
			selfD[s.Name] = map[int]float64{}
		}
		d := float64(s.EndNs-s.StartNs) / 1e6
		dur[s.Name][s.Op] += d
		selfD[s.Name][s.Op] += float64(self[s.ID]) / 1e6
		if s.Parent == 0 {
			rootMs = append(rootMs, d)
			if d > 0 {
				cover = append(cover, 1-float64(self[s.ID])/1e6/d)
			}
		}
	}
	out := layerSummary{
		Ops: len(rootMs), RootP50Ms: median(rootMs), ChildCoverage: median(cover),
		SpanP50Ms: map[string]float64{}, SelfP50Ms: map[string]float64{},
	}
	for name, byOp := range dur {
		out.SpanP50Ms[name] = median(values(byOp))
		out.SelfP50Ms[name] = median(values(selfD[name]))
	}
	return out
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
