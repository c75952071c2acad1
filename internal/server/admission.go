package server

import (
	"bytes"
	"fmt"
	"net/http"

	"cumulon/internal/chaos"
	"cumulon/internal/cloud"
	"cumulon/internal/lang"
	"cumulon/internal/opt"
	"cumulon/internal/plan"
)

// Submit validates, admits and enqueues a job, returning its status
// snapshot. It is the programmatic form of POST /v1/jobs. For
// optimizing jobs the deployment search runs here (cache-fronted), so
// the job's cluster size is known to the admission controller.
func (s *Server) Submit(req SubmitRequest) (JobStatus, error) {
	if req.Tenant == "" {
		return JobStatus{}, badRequest("admission: tenant is required")
	}
	if req.Program == "" {
		return JobStatus{}, badRequest("admission: program is required")
	}
	if req.Tile == 0 {
		req.Tile = 2048
	}
	if req.Tile < 0 {
		return JobStatus{}, badRequest("admission: tile must be positive, got %d", req.Tile)
	}
	if req.Density == 0 {
		req.Density = 0.05
	}
	if err := plan.CheckDensity(req.Density); err != nil {
		return JobStatus{}, badRequest("admission: %v", err)
	}
	if err := opt.CheckConfidence(req.Confidence); err != nil {
		return JobStatus{}, badRequest("admission: %v", err)
	}
	if req.Machine == "" {
		req.Machine = s.cfg.Machine
	}
	if req.Machine != s.cfg.Machine {
		return JobStatus{}, badRequest("admission: cluster is %s; per-job machine types are not supported", s.cfg.Machine)
	}
	if req.Slots == 0 {
		req.Slots = s.cfg.Slots
	}
	if req.Slots < 0 {
		return JobStatus{}, badRequest("admission: slots must be positive, got %d", req.Slots)
	}
	if req.Nodes == 0 {
		req.Nodes = s.cfg.DefaultJobNodes
	}
	if req.Nodes < 0 {
		return JobStatus{}, badRequest("admission: nodes must be positive, got %d", req.Nodes)
	}
	if req.Seed == 0 {
		req.Seed = s.cfg.Seed
	}
	if req.MaxRetries < 0 {
		return JobStatus{}, badRequest("admission: max_retries must be non-negative, got %d", req.MaxRetries)
	}
	if req.CheckpointEvery < 0 {
		return JobStatus{}, badRequest("admission: checkpoint_every must be non-negative, got %d", req.CheckpointEvery)
	}
	if req.Chaos != "" {
		if _, err := chaos.Parse(req.Chaos); err != nil {
			return JobStatus{}, badRequest("admission: chaos: %v", err)
		}
	}
	if req.Explain && !req.Optimize {
		return JobStatus{}, badRequest("admission: explain requires optimize")
	}
	prog, err := lang.Parse(req.Program)
	if err != nil {
		return JobStatus{}, badRequest("admission: %v", err)
	}
	if _, err := prog.Validate(); err != nil {
		return JobStatus{}, badRequest("admission: %v", err)
	}

	var dep *opt.Deployment
	var explain []byte
	depHit := false
	if req.Optimize {
		if req.DeadlineSec > 0 && req.BudgetDollars > 0 {
			return JobStatus{}, badRequest("admission: specify at most one of deadline_sec and budget_dollars")
		}
		if req.DeadlineSec <= 0 && req.BudgetDollars <= 0 {
			req.DeadlineSec = 24 * 3600
		}
		if req.MaxNodes <= 0 || req.MaxNodes > s.cfg.Nodes {
			req.MaxNodes = s.cfg.Nodes
		}
		var met bool
		dep, met, explain, depHit, err = s.search(prog, req)
		if err != nil {
			return JobStatus{}, badRequest("optimize: %v", err)
		}
		if !met {
			return JobStatus{}, badRequest("optimize: constraint not satisfiable within %d nodes (closest: %s)", req.MaxNodes, dep)
		}
		req.Nodes = dep.Cluster.Nodes
		req.Slots = dep.Cluster.Slots
	}
	if req.Nodes > s.cfg.Nodes {
		return JobStatus{}, badRequest("admission: job wants %d nodes, cluster capacity is %d", req.Nodes, s.cfg.Nodes)
	}

	j, st, err := s.enqueue(req, prog, dep, explain, depHit)
	if err != nil {
		return JobStatus{}, err
	}
	// The answer waits for the job's record to be on disk, outside the
	// lock; the scheduler may already be running the job beside the sync.
	if err := s.flushJournal(); err != nil {
		// Not acknowledged, so not run — unless the scheduler started it
		// during the failed sync: then the cancel edge refuses it and it
		// finishes as admitted jobs do.
		s.mu.Lock()
		s.transition(j, causeCancel, nil)
		s.mu.Unlock()
		return JobStatus{}, err
	}
	return st, nil
}

// enqueue is Submit's locked half: it admits the validated request as a
// queued job, whose submit edge writes its journal record.
func (s *Server) enqueue(req SubmitRequest, prog *lang.Program, dep *opt.Deployment, explain []byte, depHit bool) (*job, JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, JobStatus{}, &apiError{code: http.StatusServiceUnavailable, msg: "server is shutting down"}
	}
	if s.sched.Depth() >= s.cfg.MaxQueue {
		return nil, JobStatus{}, &apiError{code: http.StatusTooManyRequests,
			msg: fmt.Sprintf("admission: queue full (%d jobs)", s.cfg.MaxQueue)}
	}
	j := s.store.add(req)
	j.prog, j.dep, j.explain = prog, dep, explain
	j.status.DeploymentCacheHit = depHit
	j.events = newEventLog(s.cfg.EventBuffer)
	s.transition(j, causeSubmit, nil)
	if err := s.journalFailed(); err != nil {
		// No record, no run: canceled under the lock that queued it, so the
		// scheduler never sees it.
		s.transition(j, causeCancel, nil)
		return nil, JobStatus{}, err
	}
	s.signal()
	return j, j.status, nil
}

// search runs an optimizing job's deployment search over the server's one
// machine type: cache-fronted (hit: served from the cache), unless the job
// asks for an EXPLAIN report, whose search runs fresh with a recorder and
// neither reads nor fills the cache, so the report documents this search.
func (s *Server) search(prog *lang.Program, req SubmitRequest) (dep *opt.Deployment, met bool, explain []byte, hit bool, err error) {
	oreq := opt.Request{
		Program: prog, PlanCfg: plan.ConfigFor(prog, req.Tile, req.Density),
		DeadlineSec: req.DeadlineSec, BudgetDollars: req.BudgetDollars,
		Confidence: req.Confidence, MaxNodes: req.MaxNodes,
		Machines: []cloud.MachineType{s.machine},
	}
	if !req.Explain {
		dep, met, hit, err = s.cache.Deployment(Key(req.Program, oreq.PlanCfg), oreq, func() (*opt.Deployment, bool, error) {
			res, err := s.sess.Optimizer().Search(oreq)
			if err != nil {
				return nil, false, err
			}
			return res.Best, res.Met, nil
		})
		return dep, met, nil, hit, err
	}
	st := opt.NewSearchTrace()
	oreq.Search = st
	res, err := s.sess.Optimizer().Search(oreq)
	if err != nil {
		return nil, false, nil, false, err
	}
	var buf bytes.Buffer
	if err := st.Explain(&buf, 5); err != nil {
		fmt.Fprintf(&buf, "explain render failed: %v\n", err)
	}
	return res.Best, res.Met, buf.Bytes(), false, nil
}
