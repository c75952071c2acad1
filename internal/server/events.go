package server

import (
	"strings"
	"sync"

	"cumulon/internal/obs"
)

// EventType names one kind of job lifecycle event.
type EventType string

const (
	// EvQueued: the job passed admission and entered the queue.
	EvQueued EventType = "queued"
	// EvAdmitted: the scheduler granted the job its nodes.
	EvAdmitted EventType = "admitted"
	// EvCompiling: plan compilation is starting (cache-fronted).
	EvCompiling EventType = "compiling"
	// EvPlanCacheHit / EvPlanCacheMiss: how compilation was served.
	EvPlanCacheHit  EventType = "plan-cache-hit"
	EvPlanCacheMiss EventType = "plan-cache-miss"
	// EvRunning: the engine run is starting on a concrete cluster.
	EvRunning EventType = "running"
	// EvJobStart / EvPhaseStart: engine progress on the virtual clock
	// (one per plan job / barrier phase).
	EvJobStart   EventType = "job-start"
	EvPhaseStart EventType = "phase-start"
	// EvRetry / EvCrash: fault-recovery activity (chaos runs).
	EvRetry EventType = "retry"
	EvCrash EventType = "crash"
	// EvDone / EvFailed / EvCanceled: terminal outcomes.
	EvDone     EventType = "done"
	EvFailed   EventType = "failed"
	EvCanceled EventType = "canceled"
)

// JobEvent is one entry of a job's event stream. Every field is
// deterministic for a fixed program/config/seed: sequence numbers are
// assigned in emission order by the job's single executor goroutine,
// times are virtual-clock seconds, and no wall-clock value ever enters
// the payload — so the stream of a job is byte-identical across runs
// and across transports (long-poll vs SSE).
type JobEvent struct {
	Seq  int       `json:"seq"`
	Type EventType `json:"type"`
	// Job is the plan-job name (job-start events).
	Job string `json:"job,omitempty"`
	// Phase is the engine phase name, "j<job>/p<phase>" (phase-start).
	Phase string `json:"phase,omitempty"`
	// VirtualSec is the event's virtual-clock time (engine events and
	// the terminal done event, where it is the makespan).
	VirtualSec float64 `json:"virtual_sec,omitempty"`
	// Nodes is the job's cluster size (queued/admitted/running).
	Nodes int `json:"nodes,omitempty"`
	// Cluster is the concrete cluster string (running events).
	Cluster string `json:"cluster,omitempty"`
	// CostDollars is the billed price (done events).
	CostDollars float64 `json:"cost_dollars,omitempty"`
	// Detail carries free-form deterministic context (retry/crash text).
	Detail string `json:"detail,omitempty"`
	// Error is the failure message (failed events).
	Error string `json:"error,omitempty"`
}

// eventLog is one job's bounded event stream: an append-only sequence
// with ring-buffer retention (old events are evicted once the buffer is
// full, but their sequence numbers remain burned). Consumers resume
// with the next unseen sequence number; asking for an evicted prefix is
// a gone() condition (HTTP 410). Broadcast uses the closed-channel
// idiom: waiters grab the current channel and block until an append (or
// the terminal event) closes it.
type eventLog struct {
	mu      sync.Mutex
	cap     int
	events  []JobEvent // events[i].Seq == dropped+i
	dropped int        // count of evicted events (sequence floor)
	done    bool       // terminal event appended; stream is complete
	ch      chan struct{}
}

func newEventLog(capacity int) *eventLog {
	if capacity <= 0 {
		capacity = 4096
	}
	return &eventLog{cap: capacity, ch: make(chan struct{})}
}

// append stamps the next sequence number onto ev and publishes it.
// terminal marks the stream complete (no further events will follow).
func (l *eventLog) append(ev JobEvent, terminal bool) {
	l.mu.Lock()
	if l.done {
		l.mu.Unlock()
		return
	}
	ev.Seq = l.dropped + len(l.events)
	l.events = append(l.events, ev)
	if len(l.events) > l.cap {
		n := len(l.events) - l.cap
		l.events = append(l.events[:0], l.events[n:]...)
		l.dropped += n
	}
	if terminal {
		l.done = true
	}
	ch := l.ch
	l.ch = make(chan struct{})
	l.mu.Unlock()
	close(ch)
}

// emit appends a non-terminal event.
func (l *eventLog) emit(ev JobEvent) { l.append(ev, false) }

// since returns a copy of the events with Seq >= since, the next resume
// cursor, whether the stream is complete, and whether the requested
// prefix has been evicted (gone). The returned wait channel is closed
// on the next append; callers block on it when evs is empty and done is
// false.
func (l *eventLog) since(since int) (evs []JobEvent, next int, done, gone bool, wait <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if since < l.dropped {
		return nil, l.dropped, l.done, true, l.ch
	}
	if i := since - l.dropped; i < len(l.events) {
		evs = append([]JobEvent(nil), l.events[i:]...)
	}
	return evs, l.dropped + len(l.events), l.done, false, l.ch
}

// runRecorder tees engine recording into a job's event stream while
// delegating span bookkeeping to an inner recorder (the job's retained
// obs.Trace, or the no-op recorder when tracing is off). It returns the
// inner recorder's span ids so the retained trace is exactly what a
// direct run with that recorder would produce; the event stream only
// needs Start/Event payloads, which the engine sends to any recorder but
// obs.Nop(), so Enabled is the inner recorder's: an untraced job builds no
// task spans. Engine recording happens from one goroutine, so no extra
// locking is needed beyond the log's own.
type runRecorder struct {
	inner obs.Recorder
	log   *eventLog
}

func (r *runRecorder) Enabled() bool { return r.inner.Enabled() }

func (r *runRecorder) Start(kind obs.Kind, name string, parent obs.SpanID, start float64) obs.SpanID {
	switch kind {
	case obs.KindJob:
		r.log.emit(JobEvent{Type: EvJobStart, Job: name, VirtualSec: start})
	case obs.KindPhase:
		r.log.emit(JobEvent{Type: EvPhaseStart, Phase: name, VirtualSec: start})
	}
	return r.inner.Start(kind, name, parent, start)
}

func (r *runRecorder) End(id obs.SpanID, end float64)      { r.inner.End(id, end) }
func (r *runRecorder) SetAttrs(id obs.SpanID, a obs.Attrs) { r.inner.SetAttrs(id, a) }

func (r *runRecorder) Event(parent obs.SpanID, name string, ts float64) {
	switch {
	case strings.HasPrefix(name, "retried"):
		r.log.emit(JobEvent{Type: EvRetry, Detail: name, VirtualSec: ts})
	case strings.HasPrefix(name, "crash"):
		r.log.emit(JobEvent{Type: EvCrash, Detail: name, VirtualSec: ts})
	}
	r.inner.Event(parent, name, ts)
}
