package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
)

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Fields are ordered for stable, human-scannable output.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   *float64       `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Track assignment: the scheduler's control spans (program, job, phase)
// live in pid 0 — the program on tid 0, each job and its phases on tid
// jobID+1 so overlapping jobs stay readable — while every task lands on
// the track of the node×slot that ran it (pid node+1, tid slot).
const schedulerPID = 0

// WriteChrome exports the trace as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. Virtual seconds become microseconds so
// the viewers' time axis reads naturally. The export is deterministic:
// spans appear in recording order, metadata in sorted order.
func (t *Trace) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	events := t.Events()
	byID := make(map[SpanID]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}

	var evs []chromeEvent
	// Track-naming metadata first: one process per node, one thread per
	// slot, plus the scheduler process for control spans.
	type track struct{ pid, tid int }
	seen := map[track]bool{}
	for _, s := range spans {
		pid, tid := trackOf(s, byID)
		seen[track{pid, tid}] = true
	}
	var tracks []track
	for tr := range seen {
		tracks = append(tracks, tr)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	namedPID := map[int]bool{}
	for _, tr := range tracks {
		if !namedPID[tr.pid] {
			namedPID[tr.pid] = true
			name := "scheduler"
			if tr.pid != schedulerPID {
				name = "node " + strconv.Itoa(tr.pid-1)
			}
			evs = append(evs, chromeEvent{
				Name: "process_name", Phase: "M", PID: tr.pid, TID: 0,
				Args: map[string]any{"name": name},
			})
		}
		tname := "control"
		if tr.pid != schedulerPID {
			tname = "slot " + strconv.Itoa(tr.tid)
		} else if tr.tid > 0 {
			tname = "job " + strconv.Itoa(tr.tid-1)
		}
		evs = append(evs, chromeEvent{
			Name: "thread_name", Phase: "M", PID: tr.pid, TID: tr.tid,
			Args: map[string]any{"name": tname},
		})
	}

	for _, s := range spans {
		pid, tid := trackOf(s, byID)
		dur := (s.End - s.Start) * 1e6
		args := map[string]any{
			"span_id":   int64(s.ID),
			"parent_id": int64(s.Parent),
		}
		switch s.Kind {
		case KindJob:
			args["job_id"] = s.Attrs.JobID
			if len(s.Attrs.Deps) > 0 {
				args["deps"] = s.Attrs.Deps
			}
		case KindTask:
			a := s.Attrs
			args["job_id"] = a.JobID
			args["node"] = a.Node
			args["slot"] = a.Slot
			args["flops"] = a.Flops
			args["local_bytes"] = a.LocalReadBytes
			args["rack_bytes"] = a.RackReadBytes
			args["remote_bytes"] = a.RemoteReadBytes
			args["cache_bytes"] = a.CacheReadBytes
			args["write_bytes"] = a.WriteBytes
			args["retries"] = a.Retries
			args["queue_s"] = a.QueueSec
			for c := Category(0); c < NumCategories; c++ {
				if v := a.Breakdown[c]; v != 0 {
					args[c.String()+"_s"] = v
				}
			}
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: s.Kind.String(), Phase: "X",
			TS: s.Start * 1e6, Dur: &dur, PID: pid, TID: tid, Args: args,
		})
	}
	for _, e := range events {
		pid, tid := schedulerPID, 0
		if p, ok := byID[e.Parent]; ok {
			pid, tid = trackOf(p, byID)
		}
		evs = append(evs, chromeEvent{
			Name: e.Name, Cat: "event", Phase: "i",
			TS: e.Time * 1e6, PID: pid, TID: tid, Scope: "t",
			Args: map[string]any{"parent_id": int64(e.Parent)},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// trackOf maps a span to its (pid, tid) track.
func trackOf(s Span, byID map[SpanID]Span) (pid, tid int) {
	switch s.Kind {
	case KindTask:
		return s.Attrs.Node + 1, s.Attrs.Slot
	case KindJob:
		return schedulerPID, s.Attrs.JobID + 1
	case KindPhase:
		// Phases ride on their job's control track.
		if p, ok := byID[s.Parent]; ok && p.Kind == KindJob {
			return schedulerPID, p.Attrs.JobID + 1
		}
		return schedulerPID, 0
	default:
		return schedulerPID, 0
	}
}

// WriteFile writes an export with fn to the named file, or to stdout for
// "-".
func WriteFile(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
