package server

import (
	"bytes"
	"fmt"
	"io"

	"cumulon/internal/obs"
)

// artifactSet holds a finished job's retained observability artifacts.
// Each is rendered once, at job completion (explain at submit), from
// the job's private obs.Trace, so the bytes are deterministic for a
// fixed program/config/seed: the Chrome trace in particular is
// byte-identical to what `cumulon -trace` writes for the same run.
// Only the artifacts the submission opted into are non-nil. The journal
// records the set as it is (JSON base64-encodes the bytes).
type artifactSet struct {
	Trace    []byte `json:"trace,omitempty"`    // Chrome trace-event JSON (chrome://tracing)
	Critpath []byte `json:"critpath,omitempty"` // critical-path report (text)
	Metrics  []byte `json:"metrics,omitempty"`  // per-run metrics snapshot (Prometheus text)
	Explain  []byte `json:"explain,omitempty"`  // optimizer EXPLAIN report (text)
}

// empty reports whether nothing was retained.
func (a *artifactSet) empty() bool {
	return a == nil || (a.Trace == nil && a.Critpath == nil && a.Metrics == nil && a.Explain == nil)
}

// renderArtifacts renders the opted-in artifacts from a finished run's
// trace. Render errors become the artifact's body rather than failing
// the job: the run itself succeeded, and a readable error is more
// operable than a 500.
func renderArtifacts(req SubmitRequest, tr *obs.Trace, explain []byte) *artifactSet {
	a := &artifactSet{Explain: explain}
	render := func(what string, write func(io.Writer) error) []byte {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return []byte(fmt.Sprintf("%s failed: %v\n", what, err))
		}
		return buf.Bytes()
	}
	if tr != nil && req.Trace {
		a.Trace = render("trace export", tr.WriteChrome)
	}
	if tr != nil && req.Critpath {
		a.Critpath = render("critical-path analysis", func(w io.Writer) error {
			cp, err := tr.CriticalPath()
			if err != nil {
				return err
			}
			return cp.Write(w)
		})
	}
	if tr != nil && req.Metrics {
		a.Metrics = render("metrics snapshot", obs.Snapshot(tr).Write)
	}
	if a.empty() {
		return nil
	}
	return a
}
