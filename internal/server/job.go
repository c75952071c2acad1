package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"

	"cumulon/internal/core"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/obs"
	"cumulon/internal/opt"
)

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	// StateQueued: admitted, waiting for cluster capacity.
	StateQueued JobState = "queued"
	// StateRunning: executing on a per-job engine instance.
	StateRunning JobState = "running"
	// StateSucceeded: finished; results and metrics are available.
	StateSucceeded JobState = "succeeded"
	// StateFailed: compilation or execution errored; Error is set.
	StateFailed JobState = "failed"
	// StateCanceled: canceled while queued (running jobs cannot be
	// interrupted mid-engine; cancellation of a running job is refused).
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// cause names why a job changes state: each is one row of edges.
type cause uint8

const (
	causeSubmit    cause = iota // a validated submission enters the queue
	causeAdmit                  // the scheduler grants the job its nodes
	causeFinishOK               // the engine run succeeded
	causeFinishErr              // compile or run failed, or a boot cannot re-derive the job
	causeCancel                 // a client, or a refused acknowledgement, cancels a queued job
	causeRecover                // a boot re-queues a job journaled as queued or running
)

// edges is the job lifecycle: the states a job may leave by each cause and
// the state that cause leads to. "" is a job not yet submitted.
var edges = [...]struct {
	from []JobState
	to   JobState
}{
	causeSubmit:    {[]JobState{""}, StateQueued},
	causeAdmit:     {[]JobState{StateQueued}, StateRunning},
	causeFinishOK:  {[]JobState{StateRunning}, StateSucceeded},
	causeFinishErr: {[]JobState{StateQueued, StateRunning}, StateFailed},
	causeCancel:    {[]JobState{StateQueued}, StateCanceled},
	causeRecover:   {[]JobState{StateQueued, StateRunning}, StateQueued},
}

// transition moves j along the edge c names: it checks the edge, sets the
// state, emits its event, counts, retains a terminal job's artifacts (tr is
// the run's trace, if kept), journals the job, then prunes terminal history
// (after the job's record, so a job pruned by its own finish stays gone on
// replay). Callers hold s.mu and set the Error or Result the event carries
// first. An illegal edge is a 409 and changes nothing; journal errors are
// the persister's to report.
func (s *Server) transition(j *job, c cause, tr *obs.Trace) error {
	e := &edges[c]
	if !slices.Contains(e.from, j.status.State) {
		return &apiError{code: http.StatusConflict, msg: fmt.Sprintf("job %s is already %s", j.id, j.status.State)}
	}
	from := j.status.State
	j.status.State = e.to
	switch { // a queued job is exactly one the scheduler holds
	case e.to == StateQueued:
		j.enqueued = s.now()
		j.status.Error, j.status.RunSec, j.status.Result = "", 0, nil
		s.sched.Push(SchedJob{
			ID: j.id, Tenant: j.req.Tenant, Priority: j.req.Priority,
			Nodes: j.req.Nodes, Enqueued: j.enqueued,
		})
	case e.to == StateRunning: // Next popped it
		j.status.QueueWaitSec = s.now() - j.enqueued
	case from == StateQueued:
		s.sched.Remove(j.id)
	}
	terminal := e.to.Terminal()
	j.events.append(stateEvent(j.status), terminal)
	if m := s.mJobs[c]; m != nil {
		m.Add(1, obs.Label{Key: "tenant", Value: j.req.Tenant})
	}
	if terminal {
		j.artifacts = renderArtifacts(j.req, tr, j.explain)
		s.retain(j)
	}
	if s.persist != nil {
		s.persist.put(s.store.seq, s.persistedOf(j))
	}
	if !terminal {
		return nil
	}
	if removed := s.store.prune(s.cfg.JobHistory); len(removed) > 0 {
		s.mPruned.Add(float64(len(removed)))
		if s.persist != nil {
			for _, id := range removed {
				s.persist.remove(id)
			}
		}
	}
	return nil
}

// stateEvent is the lifecycle event announcing that a job entered
// st.State; a terminal one closes the job's stream.
func stateEvent(st JobStatus) JobEvent {
	switch st.State {
	case StateQueued:
		return JobEvent{Type: EvQueued, Nodes: st.Nodes}
	case StateRunning:
		return JobEvent{Type: EvAdmitted, Nodes: st.Nodes}
	case StateSucceeded:
		ev := JobEvent{Type: EvDone}
		if r := st.Result; r != nil {
			ev.VirtualSec, ev.CostDollars = r.TotalSeconds, r.CostDollars
		}
		return ev
	case StateFailed:
		return JobEvent{Type: EvFailed, Error: st.Error}
	}
	return JobEvent{Type: EvCanceled}
}

// retain registers j's retained artifacts, if any, dropping the oldest set
// beyond ArtifactHistory. Callers hold s.mu.
func (s *Server) retain(j *job) {
	if j.artifacts == nil {
		return
	}
	s.artifactOrder = append(s.artifactOrder, j.id)
	for len(s.artifactOrder) > s.cfg.ArtifactHistory {
		if oj, ok := s.store.get(s.artifactOrder[0]); ok {
			oj.artifacts = nil
		}
		s.artifactOrder = s.artifactOrder[1:]
	}
}

// statusOf is j's status as a client sees it: a queued job's wait is the
// live wait so far. Callers hold s.mu.
func (s *Server) statusOf(j *job) JobStatus {
	st := j.status
	if st.State == StateQueued {
		st.QueueWaitSec = s.now() - j.enqueued
	}
	return st
}

// SubmitRequest is the POST /v1/jobs body, and the one request document:
// cumulon's flags spell the same fields. Each field's comment states its
// rule once; Normalize applies them, filling an unset field from the site
// (cumulond's Config, or cumulon's fixed site) and refusing a value out of
// range with a one-line error.
type SubmitRequest struct {
	// Tenant names the submitting principal; fair share is accounted per
	// tenant. Required by cumulond.
	Tenant string `json:"tenant"`
	// Program is the source text (package lang syntax). Required by
	// cumulond.
	Program string `json:"program"`
	// Priority raises scheduling urgency (default 0, higher is sooner).
	Priority float64 `json:"priority,omitempty"`

	// Tile is the storage tile size: 0 takes 2048, a negative value is
	// refused.
	Tile int `json:"tile,omitempty"`
	// Density estimates the nonzero fraction of sparse inputs: 0 takes
	// 0.05, a value outside (0, 1] is refused.
	Density float64 `json:"density,omitempty"`

	// Machine, Nodes and Slots pick the job's cluster. Empty or 0 takes the
	// site's machine type, its default job size and its slots per node; a
	// negative count is refused. cumulond runs only its own machine type,
	// and without Optimize refuses more Nodes than its capacity. With
	// Optimize the search picks nodes and slots.
	Machine string `json:"machine,omitempty"`
	Nodes   int    `json:"nodes,omitempty"`
	Slots   int    `json:"slots,omitempty"`

	// Optimize lets the cost-based optimizer choose the deployment.
	// DeadlineSec minimizes cost under a deadline, BudgetDollars time
	// under a budget: a negative value is refused, so is setting both,
	// and with Optimize and neither set the deadline is 24h. Confidence
	// promises the deadline at that probability: 0 is the point estimate,
	// a value outside [0, 1) is refused, and so is a nonzero one without
	// a deadline. MaxNodes caps the search: a negative value is refused,
	// and with Optimize 0 or a value above the site's node capacity takes
	// that capacity. The search result is cached by program hash ×
	// config × constraint.
	Optimize      bool    `json:"optimize,omitempty"`
	DeadlineSec   float64 `json:"deadline_sec,omitempty"`
	BudgetDollars float64 `json:"budget_dollars,omitempty"`
	Confidence    float64 `json:"confidence,omitempty"`
	MaxNodes      int     `json:"max_nodes,omitempty"`

	// Materialize computes real values on deterministic random inputs
	// (seeded by Seed) and exposes output digests; off, the run is
	// virtual (timing and cost only).
	Materialize bool `json:"materialize,omitempty"`
	// Seed drives data generation, placement and noise: 0 takes the
	// site's seed. An optimizing request is searched with the site's seed
	// by cumulond and `cumulon -optimize` alike, so both predict the same
	// winner, and the winner runs with this one.
	Seed int64 `json:"seed,omitempty"`

	// Trace retains the job's Chrome trace (GET /v1/jobs/{id}/trace),
	// byte-identical to `cumulon -trace` for the same
	// program/config/seed. Critpath retains the critical-path report and
	// Metrics the per-run metrics snapshot (Prometheus text). Explain
	// retains the optimizer's EXPLAIN report and is refused without
	// Optimize; it forces a fresh search (the deployment cache is
	// bypassed) so the report reflects this submission.
	Trace    bool `json:"trace,omitempty"`
	Critpath bool `json:"critpath,omitempty"`
	Metrics  bool `json:"metrics,omitempty"`
	Explain  bool `json:"explain,omitempty"`

	// Chaos injects a deterministic fault schedule into the run
	// (internal/chaos spec syntax, e.g. "seed=7,kill=1@3.5"); a spec
	// chaos.Parse refuses is refused. Retry and crash recovery show up in
	// the job's event stream. MaxRetries bounds per-task retry attempts
	// under faults: 0 takes the engine's default of 3, and a negative
	// value means no retries.
	Chaos      string `json:"chaos,omitempty"`
	MaxRetries int    `json:"max_retries,omitempty"`

	// CheckpointEvery, when positive, checkpoints the program at every
	// Nth iteration boundary into the site's checkpoint store (cumulond's
	// is durable under Config.StateDir, cumulon's is -state-dir); a
	// negative value is refused. cumulond resumes from the newest valid
	// checkpoint when the job is re-executed — e.g. re-admitted after a
	// server restart. Results are bit-identical either way.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// OutputInfo describes one output matrix of a materialized job. SHA256
// digests the raw row-major little-endian float64 payload, so two runs
// are bit-identical iff their digests match.
type OutputInfo struct {
	Name      string  `json:"name"`
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	Frobenius float64 `json:"frobenius"`
	SHA256    string  `json:"sha256"`
}

// JobResult is the terminal outcome of a job.
type JobResult struct {
	// TotalSeconds is the simulated (virtual) makespan.
	TotalSeconds float64 `json:"total_seconds"`
	// CostDollars is the billed price on the job's cluster.
	CostDollars float64 `json:"cost_dollars"`
	TotalFlops  int64   `json:"total_flops"`
	Jobs        int     `json:"plan_jobs"`
	Tasks       int     `json:"plan_tasks"`
	// Outputs lists materialized outputs sorted by name (empty for
	// virtual runs).
	Outputs []OutputInfo `json:"outputs,omitempty"`
	// Checkpoints counts program checkpoints written during the run;
	// ResumedStmt is the boundary statement the run resumed from (0 when
	// it ran from the start). Only set for jobs with CheckpointEvery.
	Checkpoints int `json:"checkpoints,omitempty"`
	ResumedStmt int `json:"resumed_stmt,omitempty"`
}

// JobStatus is the client-visible view of a job (GET /v1/jobs/{id}).
type JobStatus struct {
	ID       string   `json:"id"`
	Tenant   string   `json:"tenant"`
	State    JobState `json:"state"`
	Priority float64  `json:"priority,omitempty"`
	Cluster  string   `json:"cluster,omitempty"`
	Nodes    int      `json:"nodes"`
	// QueueWaitSec is the wall time between admission and start (final
	// once running; live while queued).
	QueueWaitSec float64 `json:"queue_wait_sec"`
	// RunSec is the wall time executing (final once terminal).
	RunSec float64 `json:"run_sec,omitempty"`
	// PlanCacheHit reports whether compilation was served from the plan
	// cache; DeploymentCacheHit likewise for the optimizer search.
	PlanCacheHit       bool       `json:"plan_cache_hit"`
	DeploymentCacheHit bool       `json:"deployment_cache_hit,omitempty"`
	Error              string     `json:"error,omitempty"`
	Result             *JobResult `json:"result,omitempty"`
}

// DigestOutputs digests materialized outputs, sorted by name, the way the
// server reports them, so CLI-side runs can compare against its results.
func DigestOutputs(outs map[string]*linalg.Dense) []OutputInfo {
	infos := make([]OutputInfo, 0, len(outs))
	for _, n := range obs.SortedKeys(outs) {
		d := outs[n]
		infos = append(infos, OutputInfo{
			Name: n, Rows: d.Rows, Cols: d.Cols,
			Frobenius: d.FrobeniusNorm(),
			SHA256:    DigestDense(d),
		})
	}
	return infos
}

// DigestDense hashes a dense matrix's raw row-major little-endian
// float64 payload. Equal digests mean bit-identical results.
func DigestDense(d *linalg.Dense) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range d.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func resultFrom(res *core.ExecResult) *JobResult {
	tasks := 0
	for _, j := range res.Metrics.Jobs {
		tasks += j.Tasks
	}
	return &JobResult{
		TotalSeconds: res.Metrics.TotalSeconds,
		CostDollars:  res.CostDollars,
		TotalFlops:   res.Metrics.TotalFlops,
		Jobs:         len(res.Metrics.Jobs),
		Tasks:        tasks,
		Outputs:      DigestOutputs(res.Outputs),
		Checkpoints:  res.Metrics.Checkpoints,
		ResumedStmt:  res.Metrics.ResumedFromStmt,
	}
}

// job is the server-internal record. All fields are written under the
// server lock except prog, dep and events, which are immutable after
// Submit (the event log has its own lock).
type job struct {
	id   string
	req  SubmitRequest
	prog *lang.Program   // parsed at submit; immutable
	dep  *opt.Deployment // optimizer's choice (nil for fixed clusters)
	// status is the client-visible view; only transition sets its State.
	status JobStatus
	// enqueued is the admission time on the server clock.
	enqueued float64
	// events is the job's lifecycle event stream (never nil).
	events *eventLog
	// explain is the rendered optimizer EXPLAIN report (submissions with
	// Explain set), produced at submit time or by a boot's re-search;
	// immutable.
	explain []byte
	// artifacts holds retained post-run artifacts (nil until the job
	// finishes, and again after artifact-retention eviction).
	artifacts *artifactSet
}

// jobStore holds the server's jobs in memory with deterministic
// sequential IDs (j-000001, j-000002, ...) in admission order. Old
// terminal jobs beyond a retention cap are pruned (see prune), so the
// store stays bounded under sustained traffic.
type jobStore struct {
	jobs   map[string]*job
	order  []string // sorted: IDs are zero-padded and assigned in order
	seq    int
	pruned int64 // total jobs removed by retention
}

func newJobStore() *jobStore { return &jobStore{jobs: map[string]*job{}} }

// add registers a new, not yet submitted job and assigns its ID.
func (s *jobStore) add(req SubmitRequest) *job {
	s.seq++
	id := fmt.Sprintf("j-%06d", s.seq)
	j := &job{id: id, req: req, status: JobStatus{ID: id, Tenant: req.Tenant, Priority: req.Priority, Nodes: req.Nodes}}
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

func (s *jobStore) get(id string) (*job, bool) {
	j, ok := s.jobs[id]
	return j, ok
}

// prune drops the oldest terminal jobs until at most keep terminal jobs
// remain, returning the removed IDs (so durable stores can journal the
// deletions). Queued and running jobs are never pruned. keep <= 0
// disables pruning.
func (s *jobStore) prune(keep int) []string {
	if keep <= 0 {
		return nil
	}
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].status.State.Terminal() {
			terminal++
		}
	}
	var removed []string
	if terminal <= keep {
		return nil
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if terminal > keep && j.status.State.Terminal() {
			delete(s.jobs, id)
			terminal--
			removed = append(removed, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	s.pruned += int64(len(removed))
	return removed
}

// listPage returns up to limit job statuses with IDs strictly greater
// than after (empty = from the start), plus the cursor to pass as the
// next page's after ("" when this page exhausts the store). The scan
// starts at the cursor via binary search, so a page costs O(log n +
// scanned), not O(store).
func (s *jobStore) listPage(tenant string, state JobState, after string, limit int) ([]JobStatus, string) {
	if limit <= 0 {
		limit = 100
	}
	start := 0
	if after != "" {
		start = sort.SearchStrings(s.order, after)
		if start < len(s.order) && s.order[start] == after {
			start++
		}
	}
	out := []JobStatus{}
	for i := start; i < len(s.order); i++ {
		j := s.jobs[s.order[i]]
		if tenant != "" && j.req.Tenant != tenant {
			continue
		}
		if state != "" && j.status.State != state {
			continue
		}
		out = append(out, j.status)
		if len(out) == limit {
			if i+1 < len(s.order) {
				return out, s.order[i]
			}
			break
		}
	}
	return out, ""
}
