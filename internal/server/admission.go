package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"

	"cumulon/internal/chaos"
	"cumulon/internal/cloud"
	"cumulon/internal/core"
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
	if err := req.Normalize(s.cfg); err != nil {
		return JobStatus{}, badRequest("admission: %v", err)
	}
	if req.Machine != s.cfg.Machine {
		return JobStatus{}, badRequest("admission: cluster is %s; per-job machine types are not supported", s.cfg.Machine)
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
	oreq := req.SearchRequest(prog)
	oreq.Machines = []cloud.MachineType{s.machine}
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

// Normalize is the one reading of a request: it fills each unset field from
// site and applies each field's rule as the field's comment states it.
// cumulond's Submit, cumulon's flags and cumulon-load's specs all run it, so
// a request means the same thing whichever way it arrives. site is
// cumulond's Config or cumulon's own; a zero site field fills nothing, and a
// zero site.Nodes bounds nothing (a load spec knows no site). A valid
// request without a chaos spec is normalized without allocating.
func (r *SubmitRequest) Normalize(site Config) error {
	if r.Tile < 0 {
		return fmt.Errorf("tile must be positive, got %d", r.Tile)
	}
	if r.Tile == 0 {
		r.Tile = 2048
	}
	if r.Density == 0 {
		r.Density = 0.05
	}
	if err := plan.CheckDensity(r.Density); err != nil {
		return err
	}
	if r.Machine == "" {
		r.Machine = site.Machine
	}
	if r.Slots < 0 {
		return fmt.Errorf("slots must be positive, got %d", r.Slots)
	}
	if r.Slots == 0 {
		r.Slots = site.Slots
	}
	if r.Nodes < 0 {
		return fmt.Errorf("nodes must be positive, got %d", r.Nodes)
	}
	if r.Nodes == 0 {
		r.Nodes = site.DefaultJobNodes
	}
	if !r.Optimize && site.Nodes > 0 && r.Nodes > site.Nodes {
		return fmt.Errorf("job wants %d nodes, cluster capacity is %d", r.Nodes, site.Nodes)
	}
	if r.Seed == 0 {
		r.Seed = site.Seed
	}
	if r.CheckpointEvery < 0 {
		return fmt.Errorf("checkpoint_every must be non-negative, got %d", r.CheckpointEvery)
	}
	if r.Chaos != "" {
		if _, err := chaos.Parse(r.Chaos); err != nil {
			return fmt.Errorf("chaos: %v", err)
		}
	}
	if r.Explain && !r.Optimize {
		return errors.New("explain requires optimize")
	}
	if !(r.DeadlineSec >= 0 && r.BudgetDollars >= 0) {
		return fmt.Errorf("deadline_sec and budget_dollars must be non-negative, got %g and %g", r.DeadlineSec, r.BudgetDollars)
	}
	if r.DeadlineSec > 0 && r.BudgetDollars > 0 {
		return errors.New("specify at most one of deadline_sec and budget_dollars")
	}
	if r.Optimize && r.DeadlineSec == 0 && r.BudgetDollars == 0 {
		r.DeadlineSec = 24 * 3600
	}
	if err := opt.CheckConfidence(r.Confidence); err != nil {
		return err
	}
	if r.Confidence > 0 && r.DeadlineSec == 0 {
		return fmt.Errorf("confidence %g needs a deadline: a budget search minimizes expected time", r.Confidence)
	}
	if r.MaxNodes < 0 {
		return fmt.Errorf("max_nodes must be non-negative, got %d", r.MaxNodes)
	}
	if r.Optimize && (r.MaxNodes == 0 || site.Nodes > 0 && r.MaxNodes > site.Nodes) {
		r.MaxNodes = site.Nodes
	}
	return nil
}

// SearchRequest is the optimizer's problem for a normalized optimizing
// request. cumulond restricts it to its one machine type; cumulon searches
// the whole catalog.
func (r *SubmitRequest) SearchRequest(prog *lang.Program) opt.Request {
	return opt.Request{
		Program: prog, PlanCfg: plan.ConfigFor(prog, r.Tile, r.Density),
		DeadlineSec: r.DeadlineSec, BudgetDollars: r.BudgetDollars,
		Confidence: r.Confidence, MaxNodes: r.MaxNodes,
	}
}

// ExecOptions maps a normalized request onto the engine's options for a run
// on cluster: the one mapping that cumulond's executeJob and cumulon both
// run. The cluster is the optimizer's choice, or Machine × Nodes × Slots as
// the caller resolved it; a materialized run draws its inputs with
// core.RandomInputs at Seed. What is not the request's stays with each
// caller: cumulond adds its workers, trace memo, checkpoint store and
// recorder, cumulon its workers, state directory and trace.
func (r *SubmitRequest) ExecOptions(prog *lang.Program, cluster cloud.Cluster) (core.ExecOptions, error) {
	opts := core.ExecOptions{Cluster: cluster, Seed: r.Seed, MaxTaskRetries: r.MaxRetries, CheckpointEvery: r.CheckpointEvery}
	if r.Chaos != "" {
		// A fresh schedule per run keeps its consumption state private.
		sched, err := chaos.Parse(r.Chaos)
		if err != nil {
			return opts, err
		}
		opts.Chaos = sched
	}
	if r.Materialize {
		opts.Inputs = core.RandomInputs(prog, plan.ConfigFor(prog, r.Tile, r.Density), r.Seed)
	}
	return opts, nil
}
