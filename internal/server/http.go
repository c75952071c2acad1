package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"cumulon/internal/obs"
)

// apiError carries an HTTP status with a message.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// JobPage is the GET /v1/jobs response: one page of statuses plus the
// cursor for the next page (empty when the listing is exhausted).
type JobPage struct {
	Jobs []JobStatus `json:"jobs"`
	// NextAfter, when non-empty, is the ?after= value that continues the
	// listing.
	NextAfter string `json:"next_after,omitempty"`
}

// EventPage is the long-poll GET /v1/jobs/{id}/events response. Next is
// the ?since= value that resumes exactly after the returned events;
// polling with it never drops or duplicates. Done means the stream is
// complete: Next will never grow and further polls return immediately.
type EventPage struct {
	Events []JobEvent `json:"events"`
	Next   int        `json:"next"`
	Done   bool       `json:"done"`
}

// maxSubmitBytes bounds a POST /v1/jobs body. Program text, shapes and
// options fit in a few KiB; an unbounded body would be buffered whole by the
// JSON decoder.
const maxSubmitBytes = 1 << 20

// Handler returns the HTTP API:
//
//	POST   /v1/jobs           submit (SubmitRequest JSON -> JobStatus)
//	GET    /v1/jobs           paginated list (?tenant=, ?state=, ?after=, ?limit=)
//	GET    /v1/jobs/{id}      status
//	GET    /v1/jobs/{id}/result  terminal result (409 until terminal)
//	GET    /v1/jobs/{id}/events  lifecycle event stream: long-poll
//	                          (?since=N, ?wait=sec) or SSE (?stream=sse
//	                          or Accept: text/event-stream)
//	GET    /v1/jobs/{id}/trace     retained Chrome trace (opt-in)
//	GET    /v1/jobs/{id}/critpath  retained critical-path report (opt-in)
//	GET    /v1/jobs/{id}/metrics   retained metrics snapshot (opt-in)
//	GET    /v1/jobs/{id}/explain   retained optimizer EXPLAIN (opt-in)
//	DELETE /v1/jobs/{id}      cancel a queued job
//	GET    /v1/stats          scheduler/cache/tenant stats (JSON)
//	GET    /metrics           Prometheus text metrics
//	GET    /metrics.json      deterministic JSON metrics
//	GET    /debug/dash        self-contained HTML ops dashboard
//	GET    /debug/pprof/*     runtime profiles (only with Config.Pprof)
//	GET    /healthz           liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeErr(w, &apiError{code: http.StatusRequestEntityTooLarge,
					msg: fmt.Sprintf("request body exceeds the %d-byte limit", maxSubmitBytes)})
				return
			}
			writeErr(w, badRequest("bad request body: %v", err))
			return
		}
		st, err := s.Submit(req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		limit := 100
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				writeErr(w, badRequest("limit must be a positive integer, got %q", v))
				return
			}
			limit = n
		}
		s.mu.Lock()
		jobs, next := s.store.listPage(q.Get("tenant"), JobState(q.Get("state")), q.Get("after"), limit)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, JobPage{Jobs: jobs, NextAfter: next})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		s.handleEvents(w, r)
	})
	for _, a := range []string{"trace", "critpath", "metrics", "explain"} {
		kind := a
		mux.HandleFunc("GET /v1/jobs/{id}/"+kind, func(w http.ResponseWriter, r *http.Request) {
			s.handleArtifact(w, r, kind)
		})
	}
	mux.HandleFunc("GET /debug/dash", func(w http.ResponseWriter, r *http.Request) {
		s.handleDash(w, r)
	})
	if s.cfg.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	for _, pattern := range []string{"GET /v1/jobs/{id}", "GET /v1/jobs/{id}/result"} {
		wantTerminal := strings.HasSuffix(pattern, "/result")
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			st, ok := s.Status(r.PathValue("id"))
			switch {
			case !ok:
				writeErr(w, &apiError{code: http.StatusNotFound, msg: "no such job"})
			case wantTerminal && !st.State.Terminal():
				writeErr(w, &apiError{code: http.StatusConflict, msg: fmt.Sprintf("job is %s", st.State)})
			default:
				writeJSON(w, http.StatusOK, st)
			}
		})
	}
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		st := s.stats()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.writeMetrics(w, "text/plain; version=0.0.4", s.reg.Write)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		s.writeMetrics(w, "application/json", s.reg.WriteJSON)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// writeMetrics renders the registry under the locks its writers hold:
// s.mu, and the journal's write lock for the histograms flush feeds.
func (s *Server) writeMetrics(w http.ResponseWriter, contentType string, render func(io.Writer) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshGauges()
	if p := s.persist; p != nil {
		s.mJournalErrors.Set(float64(p.errs.Load()))
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	w.Header().Set("Content-Type", contentType)
	render(w)
}

// refreshGauges sets the point-in-time gauges from the server's stats
// before a metrics render. Callers hold s.mu.
func (s *Server) refreshGauges() {
	st := s.stats()
	cs := st.Cache
	s.mCacheHits.Set(float64(cs.PlanHits))
	s.mCacheMisses.Set(float64(cs.PlanMisses))
	s.mDepHits.Set(float64(cs.DepHits))
	s.mDepMisses.Set(float64(cs.DepMisses))
	s.mRunning.Set(float64(st.Running))
	s.mQueueDepth.Set(float64(st.QueueDepth))
	s.mFreeNodes.Set(float64(st.FreeNodes))
	s.mTraceBytes.Set(float64(cs.TraceBytes))
	if d := cs.Evictions - s.lastEvictions; d > 0 {
		s.mEvictions.Add(float64(d))
		s.lastEvictions = cs.Evictions
	}
	for _, t := range st.Tenants {
		l := obs.Label{Key: "tenant", Value: t.Tenant}
		s.mDebt.Set(t.Debt, l)
		s.mQueueWaitMax.Set(t.MaxWait, l)
	}
}

// handleEvents serves a job's event stream. Default is long-poll:
// return any events at or past ?since= immediately, otherwise block up
// to ?wait= seconds (default 10, cap 30) for the next append. With
// ?stream=sse or Accept: text/event-stream the stream is served as
// Server-Sent Events until the terminal event. Both transports deliver
// the identical JobEvent JSON.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.store.get(r.PathValue("id"))
	s.mu.Unlock()
	if !ok {
		writeErr(w, &apiError{code: http.StatusNotFound, msg: "no such job"})
		return
	}
	log := j.events // set when the job is created, never reassigned
	q := r.URL.Query()
	since := 0
	if v := q.Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, badRequest("since must be a non-negative integer, got %q", v))
			return
		}
		since = n
	}
	if q.Get("stream") == "sse" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.serveSSE(w, r, log, since)
		return
	}
	waitSec := 10.0
	if v := q.Get("wait"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			writeErr(w, badRequest("wait must be a non-negative number of seconds, got %q", v))
			return
		}
		waitSec = f
	}
	if waitSec > 30 {
		waitSec = 30
	}
	deadline := time.Now().Add(time.Duration(waitSec * float64(time.Second)))
	for {
		evs, next, done, gone, wait := log.since(since)
		if gone {
			writeErr(w, &apiError{code: http.StatusGone,
				msg: fmt.Sprintf("events before seq %d were evicted from the ring buffer; resume with ?since=%d", next, next)})
			return
		}
		if len(evs) > 0 || done || !time.Now().Before(deadline) {
			if evs == nil {
				evs = []JobEvent{}
			}
			writeJSON(w, http.StatusOK, EventPage{Events: evs, Next: next, Done: done})
			return
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-wait:
			timer.Stop()
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
	}
}

// serveSSE streams events as text/event-stream frames (`id:` carries
// the sequence number, `data:` the compact JobEvent JSON — the same
// bytes a long-poll consumer re-marshals to). The stream ends after the
// terminal event, or reports an evicted resume point as an sse "gone"
// event.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, log *eventLog, since int) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, &apiError{code: http.StatusNotImplemented, msg: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		evs, next, done, gone, wait := log.since(since)
		if gone {
			fmt.Fprintf(w, "event: gone\ndata: {\"next\": %d}\n\n", next)
			fl.Flush()
			return
		}
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, b)
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		since = next
		if done {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

// handleArtifact serves one retained artifact of a terminal job.
// 409 while the job is still queued/running, 404 when the submission
// did not opt in, 410 when retention evicted the artifact set.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request, kind string) {
	s.mu.Lock()
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		s.mu.Unlock()
		writeErr(w, &apiError{code: http.StatusNotFound, msg: "no such job"})
		return
	}
	state := j.status.State
	arts := j.artifacts
	req := j.req
	s.mu.Unlock()
	if !state.Terminal() {
		writeErr(w, &apiError{code: http.StatusConflict, msg: fmt.Sprintf("job is %s; artifacts exist once it is terminal", state)})
		return
	}
	if arts == nil {
		arts = &artifactSet{}
	}
	var body []byte
	var optedIn bool
	ctype := "text/plain; charset=utf-8"
	switch kind {
	case "trace":
		body, optedIn, ctype = arts.Trace, req.Trace, "application/json"
	case "critpath":
		body, optedIn = arts.Critpath, req.Critpath
	case "metrics":
		body, optedIn, ctype = arts.Metrics, req.Metrics, "text/plain; version=0.0.4"
	case "explain":
		body, optedIn = arts.Explain, req.Explain
	default:
		writeErr(w, &apiError{code: http.StatusNotFound, msg: "unknown artifact"})
		return
	}
	if !optedIn {
		writeErr(w, &apiError{code: http.StatusNotFound,
			msg: fmt.Sprintf("artifact not retained; submit with %q: true to keep it", kind)})
		return
	}
	if body == nil {
		writeErr(w, &apiError{code: http.StatusGone, msg: "artifact evicted by retention; raise -artifact-history"})
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if ae, ok := err.(*apiError); ok {
		code = ae.code
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
