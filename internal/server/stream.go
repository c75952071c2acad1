package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

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

// eventLogFor resolves a job's event log.
func (s *Server) eventLogFor(id string) (*eventLog, *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.store.get(id)
	if !ok {
		return nil, &apiError{code: http.StatusNotFound, msg: "no such job"}
	}
	return j.events, nil
}

// handleEvents serves a job's event stream. Default is long-poll:
// return any events at or past ?since= immediately, otherwise block up
// to ?wait= seconds (default 10, cap 30) for the next append. With
// ?stream=sse or Accept: text/event-stream the stream is served as
// Server-Sent Events until the terminal event. Both transports deliver
// the identical JobEvent JSON.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	log, aerr := s.eventLogFor(r.PathValue("id"))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
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
	state := j.state
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
		body, optedIn, ctype = arts.trace, req.Trace, "application/json"
	case "critpath":
		body, optedIn = arts.critpath, req.Critpath
	case "metrics":
		body, optedIn, ctype = arts.metrics, req.Metrics, "text/plain; version=0.0.4"
	case "explain":
		body, optedIn = arts.explain, req.Explain
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
