package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cumulon/internal/chaos"
	"cumulon/internal/ckpt"
	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/lang"
	"cumulon/internal/obs"
	"cumulon/internal/opt"
	"cumulon/internal/plan"
)

// Config configures a Server.
type Config struct {
	// Machine is the shared cluster's machine type (default m1.large).
	Machine string
	// Nodes is the shared cluster's node capacity (default 16): the sum
	// of all running jobs' cluster sizes never exceeds it. A submission
	// asking for more nodes than this is rejected outright.
	Nodes int
	// Slots is the default task slots per node for jobs that don't ask
	// (default 2).
	Slots int
	// Seed is the server's default seed for jobs that don't supply one
	// (default 42).
	Seed int64
	// DefaultJobNodes sizes jobs that don't ask (default 4, capped at
	// Nodes).
	DefaultJobNodes int
	// MaxQueue bounds the admission queue; submissions beyond it get 429
	// (default 1024).
	MaxQueue int
	// Workers bounds how many tasks a materialized job computes at once
	// (see exec.Config.Workers): 0 = the host's compute budget, which all
	// running jobs share; 1 = sequential.
	Workers int
	// Sched tunes the fair-share scheduler (weights, aging, reservation).
	Sched SchedConfig
	// CacheSize bounds the combined plan+deployment cache entry count;
	// least-recently-used entries are evicted beyond it (default 256).
	CacheSize int
	// JobHistory bounds retained terminal jobs: the oldest finished jobs
	// beyond it are pruned from the store (default 512).
	JobHistory int
	// ArtifactHistory bounds how many finished jobs keep their retained
	// artifacts (trace/critpath/metrics/explain); older artifact sets
	// are dropped first (default 64).
	ArtifactHistory int
	// EventBuffer bounds each job's event ring buffer (default 4096).
	// Overflowing events are evicted oldest-first; consumers resuming
	// below the retained window get 410 Gone.
	EventBuffer int
	// Pprof mounts net/http/pprof under /debug/pprof/ when set.
	Pprof bool
	// StateDir makes the job store durable: job transitions are
	// journaled under <StateDir>/jobs (write-ahead JSONL plus rotated
	// snapshots) and program checkpoints persist under <StateDir>/ckpt.
	// A restarted server recovers its job history, re-queues jobs that
	// were waiting, and re-admits jobs that were running — which then
	// resume from their newest program checkpoint. Empty disables
	// durability (checkpoints, if requested, live in process memory).
	StateDir string
}

func (c Config) withDefaults() Config {
	if c.Machine == "" {
		c.Machine = "m1.large"
	}
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.Slots <= 0 {
		c.Slots = 2
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.DefaultJobNodes <= 0 {
		c.DefaultJobNodes = 4
	}
	if c.DefaultJobNodes > c.Nodes {
		c.DefaultJobNodes = c.Nodes
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 512
	}
	if c.ArtifactHistory <= 0 {
		c.ArtifactHistory = 64
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 4096
	}
	return c
}

// Server is the cumulond job service. Create with New, serve Handler()
// over HTTP, and Close when done. All exported methods are safe for
// concurrent use.
type Server struct {
	cfg     Config
	machine cloud.MachineType
	sess    *core.Session
	cache   *PlanCache
	start   time.Time

	mu        sync.Mutex
	store     *jobStore
	sched     *FairScheduler
	freeNodes int
	running   int
	closed    bool

	// persist journals job transitions when Config.StateDir is set
	// (nil otherwise); ckptStore receives program checkpoints of jobs
	// that ask for them (durable under StateDir, in-memory otherwise).
	persist   *statePersister
	ckptStore ckpt.Store

	maxWait map[string]float64 // per-tenant max queue wait seen
	// artifactOrder lists jobs with retained artifacts, oldest first;
	// beyond cfg.ArtifactHistory the oldest set is dropped.
	artifactOrder []string
	// tenantHists caches per-tenant histogram series handles so the
	// record path is map-free after first use.
	tenantHists map[string]*tenantSeries
	// lastEvictions tracks the cache eviction count already folded into
	// the evictions counter.
	lastEvictions int64

	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup // scheduler loop + running jobs

	// Metrics (registry writes are guarded by mu).
	reg            *obs.Registry
	mSubmitted     *obs.Counter
	mCompleted     *obs.Counter
	mFailed        *obs.Counter
	mCanceled      *obs.Counter
	mQueueWaitSum  *obs.Counter
	mQueueWaitMax  *obs.Gauge
	mQueueWaitHist *obs.Histogram
	mCost          *obs.Counter
	mVirtualSec    *obs.Counter
	mService       *obs.Counter
	mCacheHits     *obs.Gauge
	mCacheMisses   *obs.Gauge
	mDepHits       *obs.Gauge
	mDepMisses     *obs.Gauge
	mRunning       *obs.Gauge
	mQueueDepth    *obs.Gauge
	mFreeNodes     *obs.Gauge
	mCompileHist   *obs.Histogram
	mRunHist       *obs.Histogram
	mE2EHist       *obs.Histogram
	mDebt          *obs.Gauge
	mEvictions     *obs.Counter
	mPruned        *obs.Counter
	mJournalErrors *obs.Gauge
}

// tenantSeries caches one tenant's latency histogram series handles.
type tenantSeries struct {
	queue, compile, run, e2e *obs.HistSeries
}

// tenantHist returns (creating on first use) the cached series handles
// for a tenant. Callers hold s.mu.
func (s *Server) tenantHist(tenant string) *tenantSeries {
	ts := s.tenantHists[tenant]
	if ts == nil {
		l := obs.Label{Key: "tenant", Value: tenant}
		ts = &tenantSeries{
			queue:   s.mQueueWaitHist.With(l),
			compile: s.mCompileHist.With(l),
			run:     s.mRunHist.With(l),
			e2e:     s.mE2EHist.With(l),
		}
		s.tenantHists[tenant] = ts
	}
	return ts
}

// New builds a server and starts its scheduler loop.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	mt, err := cloud.TypeByName(cfg.Machine)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		machine:     mt,
		sess:        core.NewSession(cfg.Seed),
		cache:       NewPlanCache(cfg.CacheSize),
		start:       time.Now(),
		store:       newJobStore(),
		sched:       NewFairScheduler(cfg.Sched),
		freeNodes:   cfg.Nodes,
		maxWait:     map[string]float64{},
		tenantHists: map[string]*tenantSeries{},
		wake:        make(chan struct{}, 1),
		quit:        make(chan struct{}),
		reg:         obs.NewRegistry(),
	}
	r := s.reg
	s.mSubmitted = r.Counter("cumulond_jobs_submitted_total", "jobs admitted, by tenant")
	s.mCompleted = r.Counter("cumulond_jobs_completed_total", "jobs finished successfully, by tenant")
	s.mFailed = r.Counter("cumulond_jobs_failed_total", "jobs that errored, by tenant")
	s.mCanceled = r.Counter("cumulond_jobs_canceled_total", "jobs canceled while queued, by tenant")
	s.mQueueWaitSum = r.Counter("cumulond_queue_wait_seconds_total", "cumulative admission-to-start wait, by tenant")
	s.mQueueWaitMax = r.Gauge("cumulond_queue_wait_max_seconds", "largest admission-to-start wait seen, by tenant")
	s.mQueueWaitHist = r.Histogram("cumulond_queue_wait_seconds", "admission-to-start wait distribution, by tenant",
		obs.LatencyBuckets)
	s.mCompileHist = r.Histogram("cumulond_compile_seconds", "plan compile wall time (cache hits are ~0), by tenant",
		obs.LatencyBuckets)
	s.mRunHist = r.Histogram("cumulond_run_seconds", "engine run wall time, by tenant",
		obs.LatencyBuckets)
	s.mE2EHist = r.Histogram("cumulond_e2e_seconds", "admission-to-terminal wall time, by tenant",
		obs.LatencyBuckets)
	s.mCost = r.Counter("cumulond_cost_dollars_total", "simulated dollars billed, by tenant")
	s.mVirtualSec = r.Counter("cumulond_virtual_seconds_total", "simulated program seconds executed, by tenant")
	s.mService = r.Counter("cumulond_service_slot_seconds_total", "fair-share service charged (virtual slot-seconds), by tenant")
	s.mCacheHits = r.Gauge("cumulond_plan_cache_hits", "plan cache hits (compile served from cache)")
	s.mCacheMisses = r.Gauge("cumulond_plan_cache_misses", "plan cache misses (programs compiled)")
	s.mDepHits = r.Gauge("cumulond_deployment_cache_hits", "optimizer deployment cache hits")
	s.mDepMisses = r.Gauge("cumulond_deployment_cache_misses", "optimizer searches run (deployment cache misses)")
	s.mRunning = r.Gauge("cumulond_jobs_running", "jobs currently executing")
	s.mQueueDepth = r.Gauge("cumulond_queue_depth", "jobs waiting for capacity")
	s.mFreeNodes = r.Gauge("cumulond_nodes_free", "unallocated nodes of the shared cluster")
	s.mDebt = r.Gauge("cumulond_fair_share_debt", "normalized service above the best-served tenant (service/weight minus the minimum), by tenant")
	s.mEvictions = r.Counter("cumulond_plan_cache_evictions_total", "plan/deployment cache entries evicted by the LRU bound")
	s.mPruned = r.Counter("cumulond_jobs_pruned_total", "terminal jobs removed by job-history retention")
	s.mJournalErrors = r.Gauge("cumulond_journal_errors_total", "journal records dropped and flushes refused since the journal's first write or sync error, which is final")

	if cfg.StateDir != "" {
		cs, err := ckpt.NewDirStore(filepath.Join(cfg.StateDir, "ckpt"))
		if err != nil {
			return nil, err
		}
		s.ckptStore = cs
		p, snap, err := openState(filepath.Join(cfg.StateDir, "jobs"))
		if err != nil {
			return nil, err
		}
		s.recover(snap)
		// Reconciled state (running jobs re-queued, unparseable ones
		// failed) becomes the new generation's snapshot.
		cur := &snapshotFile{Seq: s.store.seq}
		for _, id := range s.store.order {
			cur.Jobs = append(cur.Jobs, s.persistedOf(s.store.jobs[id]))
		}
		if err := p.begin(cur); err != nil {
			return nil, err
		}
		// Fed by flush under the persister's own lock, not s.mu.
		p.syncSec = r.Histogram("cumulond_journal_sync_seconds", "wall time of one journal sync",
			obs.LatencyBuckets).With()
		p.recsPerSync = r.Histogram("cumulond_journal_records_per_sync", "journal records one sync made durable",
			[]float64{1, 2, 3, 4, 6, 8, 12, 16, 32, 64}).With()
		s.persist = p
	} else {
		s.ckptStore = ckpt.NewMemStore()
	}

	s.wg.Add(1)
	go s.loop()
	s.signal() // admit any recovered queued jobs
	return s, nil
}

// Close stops scheduling, waits for running jobs to finish, and leaves
// queued jobs queued.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
	if s.persist != nil {
		s.persist.close()
	}
}

// now is the server clock: seconds since start.
func (s *Server) now() float64 { return time.Since(s.start).Seconds() }

// signal wakes the scheduler loop (non-blocking; the channel carries no
// data, only "state changed").
func (s *Server) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// loop admits queued jobs whenever capacity or queue state changes.
func (s *Server) loop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.wake:
		}
		s.mu.Lock()
		for {
			sj := s.sched.Next(s.freeNodes, s.now())
			if sj == nil {
				break
			}
			j := s.store.jobs[sj.ID]
			if j == nil || j.state != StateQueued { // canceled after Push
				continue
			}
			j.state = StateRunning
			j.status.State = StateRunning
			j.status.QueueWaitSec = s.now() - sj.Enqueued
			s.freeNodes -= sj.Nodes
			s.running++
			s.observeStart(j.req.Tenant, j.status.QueueWaitSec)
			s.persistJob(j)
			j.events.emit(JobEvent{Type: EvAdmitted, Nodes: sj.Nodes})
			s.wg.Add(1)
			go s.runJob(j, sj)
		}
		s.mu.Unlock()
	}
}

func (s *Server) observeStart(tenant string, wait float64) {
	l := obs.Label{Key: "tenant", Value: tenant}
	s.mQueueWaitSum.Add(wait, l)
	s.mQueueWaitHist.Observe(wait)
	s.tenantHist(tenant).queue.Observe(wait)
	if wait > s.maxWait[tenant] {
		s.maxWait[tenant] = wait
		s.mQueueWaitMax.Set(wait, l)
	}
}

// apiError carries an HTTP status with a message.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

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
		oreq := s.searchRequest(prog, req)
		var met bool
		if req.Explain {
			// An EXPLAIN report must reflect this submission's search, so
			// the deployment cache is bypassed and the search runs fresh
			// with a recorder attached.
			dep, met, explain, err = s.explainSearch(oreq)
		} else {
			dep, met, depHit, err = s.searchDeployment(req.Program, oreq)
		}
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
		// during the failed sync: then it finishes as admitted jobs do.
		s.mu.Lock()
		if j.state == StateQueued {
			s.cancelLocked(j)
		}
		s.mu.Unlock()
		return JobStatus{}, err
	}
	return st, nil
}

// enqueue is Submit's locked half: it admits the validated request as a
// queued job and writes its journal record.
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
	j.prog = prog
	j.dep = dep
	j.explain = explain
	j.enqueued = s.now()
	j.status.Nodes = req.Nodes
	j.status.DeploymentCacheHit = depHit
	j.events = newEventLog(s.cfg.EventBuffer)
	j.events.emit(JobEvent{Type: EvQueued, Nodes: req.Nodes})
	s.sched.Push(SchedJob{
		ID: j.id, Tenant: req.Tenant, Priority: req.Priority,
		Nodes: req.Nodes, Enqueued: j.enqueued,
	})
	s.mSubmitted.Add(1, obs.Label{Key: "tenant", Value: req.Tenant})
	if err := s.persistJob(j); err != nil {
		s.cancelLocked(j) // no record, no run: it never reaches the scheduler
		return nil, JobStatus{}, err
	}
	s.signal()
	return j, j.status, nil
}

// searchRequest is the optimizer search an optimizing submission asks
// for, over the server's one machine type.
func (s *Server) searchRequest(prog *lang.Program, req SubmitRequest) opt.Request {
	return opt.Request{
		Program: prog, PlanCfg: plan.ConfigFor(prog, req.Tile, req.Density),
		DeadlineSec: req.DeadlineSec, BudgetDollars: req.BudgetDollars,
		Confidence: req.Confidence, MaxNodes: req.MaxNodes,
		Machines: []cloud.MachineType{s.machine},
	}
}

// explainSearch runs a fresh optimizer search with a SearchTrace
// attached and renders the EXPLAIN report. The deployment cache is
// neither consulted nor populated: the report documents this search.
func (s *Server) explainSearch(oreq opt.Request) (*opt.Deployment, bool, []byte, error) {
	st := opt.NewSearchTrace()
	oreq.Search = st
	res, err := s.sess.Optimizer().Search(oreq)
	if err != nil {
		return nil, false, nil, err
	}
	var buf bytes.Buffer
	if err := st.Explain(&buf, 5); err != nil {
		fmt.Fprintf(&buf, "explain render failed: %v\n", err)
	}
	return res.Best, res.Met, buf.Bytes(), nil
}

// searchDeployment runs the cache-fronted optimizer search; the third
// result reports whether this call was served from the cache.
func (s *Server) searchDeployment(source string, oreq opt.Request) (*opt.Deployment, bool, bool, error) {
	return s.cache.Deployment(Key(source, oreq.PlanCfg), oreq, func() (*opt.Deployment, bool, error) {
		res, err := s.sess.Optimizer().Search(oreq)
		if err != nil {
			return nil, false, err
		}
		return res.Best, res.Met, nil
	})
}

// execOutcome carries what executeJob learned besides the result.
type execOutcome struct {
	res        *core.ExecResult
	cluster    string
	planHit    bool
	compileSec float64
	trace      *obs.Trace // non-nil when the job opted into artifacts
}

// runJob executes one admitted job on its own engine instance and
// records the outcome.
func (s *Server) runJob(j *job, sj *SchedJob) {
	defer s.wg.Done()
	started := time.Now()
	out, err := s.executeJob(j)

	s.mu.Lock()
	j.status.RunSec = time.Since(started).Seconds()
	j.status.Cluster = out.cluster
	j.status.PlanCacheHit = out.planHit
	l := obs.Label{Key: "tenant", Value: j.req.Tenant}
	if err != nil {
		j.state = StateFailed
		j.status.State = StateFailed
		j.status.Error = err.Error()
		s.mFailed.Add(1, l)
		j.events.append(JobEvent{Type: EvFailed, Error: err.Error()}, true)
	} else {
		res := out.res
		j.state = StateSucceeded
		j.status.State = StateSucceeded
		j.status.Result = resultFrom(res)
		service := res.Metrics.TotalSeconds * float64(sj.Nodes) * float64(j.req.Slots)
		s.sched.Charge(j.req.Tenant, service)
		s.mCompleted.Add(1, l)
		s.mCost.Add(res.CostDollars, l)
		s.mVirtualSec.Add(res.Metrics.TotalSeconds, l)
		s.mService.Add(service, l)
		j.events.append(JobEvent{
			Type:        EvDone,
			VirtualSec:  res.Metrics.TotalSeconds,
			CostDollars: res.CostDollars,
		}, true)
	}
	ts := s.tenantHist(j.req.Tenant)
	ts.compile.Observe(out.compileSec)
	ts.run.Observe(j.status.RunSec)
	ts.e2e.Observe(j.status.QueueWaitSec + j.status.RunSec)
	s.mCompileHist.Observe(out.compileSec)
	s.mRunHist.Observe(j.status.RunSec)
	s.mE2EHist.Observe(j.status.QueueWaitSec + j.status.RunSec)
	s.retainArtifacts(j, out.trace)
	s.persistJob(j)
	if removed := s.store.prune(s.cfg.JobHistory); len(removed) > 0 {
		s.mPruned.Add(float64(len(removed)))
		if s.persist != nil {
			for _, id := range removed {
				s.persist.remove(id)
			}
		}
	}
	s.freeNodes += sj.Nodes
	s.running--
	s.signal()
	s.mu.Unlock()
	// The worker outlives its terminal record's sync, so Close, which
	// waits for the workers, leaves a complete journal.
	s.flushJournal()
}

// retainArtifacts renders and stores a terminal job's opted-in
// artifacts, evicting the oldest retained set beyond the cap. Callers
// hold s.mu.
func (s *Server) retainArtifacts(j *job, tr *obs.Trace) {
	j.artifacts = renderArtifacts(j.req, tr, j.explain)
	if j.artifacts == nil {
		return
	}
	s.artifactOrder = append(s.artifactOrder, j.id)
	for len(s.artifactOrder) > s.cfg.ArtifactHistory {
		old := s.artifactOrder[0]
		s.artifactOrder = s.artifactOrder[1:]
		if oj, ok := s.store.get(old); ok {
			oj.artifacts = nil
		}
	}
}

// executeJob does the cache-fronted compile and the engine run, outside
// the server lock. It feeds the job's event stream and, when the job
// opted into artifact retention, records a private obs.Trace whose
// Chrome export matches a direct CLI run of the same
// program/config/seed byte for byte.
func (s *Server) executeJob(j *job) (execOutcome, error) {
	req := j.req
	var out execOutcome
	cfg := plan.ConfigFor(j.prog, req.Tile, req.Density)
	j.events.emit(JobEvent{Type: EvCompiling})
	compileStart := time.Now()
	prog, tmpl, _, planHit, err := s.cache.Compile(req.Program, cfg)
	out.compileSec = time.Since(compileStart).Seconds()
	if err != nil {
		return out, err
	}
	out.planHit = planHit
	if out.planHit {
		j.events.emit(JobEvent{Type: EvPlanCacheHit})
	} else {
		j.events.emit(JobEvent{Type: EvPlanCacheMiss})
	}

	pl := tmpl.Clone()
	var cluster cloud.Cluster
	if j.dep != nil {
		cluster = j.dep.Cluster
		out.cluster = cluster.String()
		if err := j.dep.Apply(pl); err != nil {
			return out, err
		}
	} else {
		cluster, err = cloud.NewCluster(s.machine, req.Nodes, req.Slots)
		if err != nil {
			return out, err
		}
		pl.AutoSplit(cluster.TotalSlots())
		out.cluster = cluster.String()
	}

	var inner obs.Recorder = obs.Nop()
	if req.Trace || req.Critpath || req.Metrics {
		out.trace = obs.NewTrace()
		inner = out.trace
	}
	opts := core.ExecOptions{
		Cluster:        cluster,
		Seed:           req.Seed,
		Workers:        s.cfg.Workers,
		Recorder:       &runRecorder{inner: inner, log: j.events},
		MaxTaskRetries: req.MaxRetries,
	}
	if req.CheckpointEvery > 0 {
		// Checkpointing jobs always run with Resume: a first execution
		// finds no checkpoint and runs from scratch; a re-execution (a
		// job re-admitted after a server crash, or an identical
		// resubmission) fast-forwards past the jobs its newest valid
		// checkpoint covers, bit-identically.
		opts.CheckpointEvery = req.CheckpointEvery
		opts.CheckpointStore = s.ckptStore
		opts.Resume = true
	}
	if req.Chaos != "" {
		// Validated at admission; a fresh schedule per run keeps any
		// consumption state private to this job.
		sched, err := chaos.Parse(req.Chaos)
		if err != nil {
			return out, err
		}
		opts.Chaos = sched
	}
	if req.Materialize {
		opts.Inputs = core.RandomInputs(prog, cfg, req.Seed)
	}
	j.events.emit(JobEvent{Type: EvRunning, Cluster: out.cluster, Nodes: cluster.Nodes})
	out.res, err = s.sess.ExecutePlan(pl, cluster, opts)
	return out, err
}

// Cancel cancels a queued job. Running and terminal jobs are refused.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.store.get(id)
	var err error
	switch {
	case !ok:
		err = &apiError{code: http.StatusNotFound, msg: fmt.Sprintf("no job %s", id)}
	case j.state == StateRunning:
		err = &apiError{code: http.StatusConflict, msg: fmt.Sprintf("job %s is running and cannot be interrupted", id)}
	case j.state != StateQueued:
		err = &apiError{code: http.StatusConflict, msg: fmt.Sprintf("job %s is already %s", id, j.state)}
	}
	if err != nil {
		s.mu.Unlock()
		return JobStatus{}, err
	}
	s.cancelLocked(j)
	st := j.status
	s.mu.Unlock()
	// The answer waits for the cancel's record, outside the lock.
	if err := s.flushJournal(); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// cancelLocked moves a queued job to canceled and writes its record.
// Callers hold s.mu.
func (s *Server) cancelLocked(j *job) {
	s.sched.Remove(j.id)
	j.state = StateCanceled
	j.status.State = StateCanceled
	s.mCanceled.Add(1, obs.Label{Key: "tenant", Value: j.req.Tenant})
	j.events.append(JobEvent{Type: EvCanceled}, true)
	s.retainArtifacts(j, nil)
	s.persistJob(j)
}

// Status returns a job's status snapshot.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.store.get(id)
	if !ok {
		return JobStatus{}, false
	}
	st := j.status
	if j.state == StateQueued {
		st.QueueWaitSec = s.now() - j.enqueued // live wait so far
	}
	return st, true
}

// TenantStats is the per-tenant slice of /v1/stats.
type TenantStats struct {
	Tenant    string  `json:"tenant"`
	Weight    float64 `json:"weight"`
	Service   float64 `json:"service_slot_seconds"`
	Submitted int     `json:"submitted"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed"`
	Canceled  int     `json:"canceled"`
	Running   int     `json:"running"`
	Queued    int     `json:"queued"`
	MaxWait   float64 `json:"max_queue_wait_sec"`
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	UptimeSec  float64       `json:"uptime_sec"`
	Machine    string        `json:"machine"`
	Capacity   int           `json:"capacity_nodes"`
	FreeNodes  int           `json:"free_nodes"`
	Running    int           `json:"running"`
	QueueDepth int           `json:"queue_depth"`
	Cache      CacheStats    `json:"cache"`
	Tenants    []TenantStats `json:"tenants"`
}

// StatsSnapshot assembles the live stats.
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		UptimeSec: s.now(), Machine: s.cfg.Machine,
		Capacity: s.cfg.Nodes, FreeNodes: s.freeNodes,
		Running: s.running, QueueDepth: s.sched.Depth(),
		Cache:   s.cache.Stats(),
		Tenants: []TenantStats{},
	}
	byTenant := map[string]*TenantStats{}
	var names []string
	for _, id := range s.store.order {
		j := s.store.jobs[id]
		t := byTenant[j.req.Tenant]
		if t == nil {
			t = &TenantStats{
				Tenant: j.req.Tenant,
				Weight: s.sched.Weight(j.req.Tenant),
			}
			byTenant[j.req.Tenant] = t
			names = append(names, j.req.Tenant)
		}
		t.Submitted++
		switch j.state {
		case StateSucceeded:
			t.Completed++
		case StateFailed:
			t.Failed++
		case StateCanceled:
			t.Canceled++
		case StateRunning:
			t.Running++
		case StateQueued:
			t.Queued++
		}
		if w := j.status.QueueWaitSec; j.state != StateQueued && w > t.MaxWait {
			t.MaxWait = w
		}
	}
	sort.Strings(names)
	for _, n := range names {
		t := byTenant[n]
		t.Service = s.sched.Service(n)
		st.Tenants = append(st.Tenants, *t)
	}
	return st
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
		writeJSON(w, http.StatusOK, s.StatsSnapshot())
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

// refreshGauges sets the point-in-time gauges before a metrics render.
// Callers hold s.mu.
func (s *Server) refreshGauges() {
	cs := s.cache.Stats()
	s.mCacheHits.Set(float64(cs.PlanHits))
	s.mCacheMisses.Set(float64(cs.PlanMisses))
	s.mDepHits.Set(float64(cs.DepHits))
	s.mDepMisses.Set(float64(cs.DepMisses))
	s.mRunning.Set(float64(s.running))
	s.mQueueDepth.Set(float64(s.sched.Depth()))
	s.mFreeNodes.Set(float64(s.freeNodes))
	if d := cs.Evictions - s.lastEvictions; d > 0 {
		s.mEvictions.Add(float64(d))
		s.lastEvictions = cs.Evictions
	}
	// Fair-share debt: a tenant's normalized service above the
	// best-served tenant's. The scheduler favors low debt, so a large
	// value means the tenant has been consuming ahead of its share.
	minNorm := 0.0
	first := true
	for tenant := range s.tenantHists {
		n := s.sched.Service(tenant) / s.sched.Weight(tenant)
		if first || n < minNorm {
			minNorm, first = n, false
		}
	}
	for _, tenant := range obs.SortedKeys(s.tenantHists) {
		n := s.sched.Service(tenant) / s.sched.Weight(tenant)
		s.mDebt.Set(n-minNorm, obs.Label{Key: "tenant", Value: tenant})
	}
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
