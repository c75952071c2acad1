package obs

import (
	"fmt"
	"sync"
)

// Span is one recorded interval of virtual time.
type Span struct {
	ID     SpanID
	Parent SpanID
	Kind   Kind
	Name   string
	Start  float64
	End    float64
	Attrs  Attrs
}

// Seconds returns the span's duration.
func (s Span) Seconds() float64 { return s.End - s.Start }

// Event is one recorded instant.
type Event struct {
	Parent SpanID
	Name   string
	Time   float64
}

// Trace is the buffered in-memory Recorder. Spans and events accumulate
// in recording order; exports and analyses run over the finished buffer.
type Trace struct {
	mu     sync.Mutex
	spans  []Span
	events []Event
}

// NewTrace returns an empty trace recorder.
func NewTrace() *Trace { return &Trace{} }

// Enabled reports true: a Trace always records.
func (t *Trace) Enabled() bool { return true }

// Start opens a span. Span ids are 1-based indexes into the buffer.
func (t *Trace) Start(kind Kind, name string, parent SpanID, start float64) SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Kind: kind, Name: name,
		Start: start, End: start,
	})
	return id
}

// End closes (or re-closes) a span.
func (t *Trace) End(id SpanID, end float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id <= 0 || int(id) > len(t.spans) {
		return
	}
	t.spans[id-1].End = end
}

// SetAttrs replaces a span's attributes.
func (t *Trace) SetAttrs(id SpanID, a Attrs) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id <= 0 || int(id) > len(t.spans) {
		return
	}
	t.spans[id-1].Attrs = a
}

// Event records an instantaneous event.
func (t *Trace) Event(parent SpanID, name string, ts float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, Event{Parent: parent, Name: name, Time: ts})
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Events returns a copy of the recorded events in recording order.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// SpansOf returns the recorded spans of one kind, in recording order.
func (t *Trace) SpansOf(kind Kind) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// Program returns the unique program span of the trace. Analyses that
// need a single execution (critical path) use this.
func (t *Trace) Program() (Span, error) {
	progs := t.SpansOf(KindProgram)
	if len(progs) != 1 {
		return Span{}, fmt.Errorf("obs: trace holds %d program spans, want exactly 1", len(progs))
	}
	return progs[0], nil
}

// children returns a map from parent span id to child spans, in
// recording order.
func childIndex(spans []Span) map[SpanID][]Span {
	idx := make(map[SpanID][]Span)
	for _, s := range spans {
		idx[s.Parent] = append(idx[s.Parent], s)
	}
	return idx
}
