package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

// metricsText renders the server's metrics the way GET path serves them.
func metricsText(t *testing.T, s *Server, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d", path, rec.Code)
	}
	return rec.Body.String()
}

// lifecycleEvent maps each state to the event that announces it; the
// stream's last such event must agree with the job's status.
var lifecycleEvent = map[JobState]EventType{
	StateQueued: EvQueued, StateRunning: EvAdmitted,
	StateSucceeded: EvDone, StateFailed: EvFailed, StateCanceled: EvCanceled,
}

// lastLifecycleEvent is the newest event of j's stream that announces a
// state.
func lastLifecycleEvent(j *job) EventType {
	evs, _, _, _, _ := j.events.since(0)
	for i := len(evs) - 1; i >= 0; i-- {
		for _, et := range lifecycleEvent {
			if evs[i].Type == et {
				return et
			}
		}
	}
	return ""
}

// scheduled reports whether the scheduler holds job id. Callers hold s.mu.
func scheduled(s *Server, id string) bool {
	for _, sj := range s.sched.queue {
		if sj.ID == id {
			return true
		}
	}
	return false
}

// TestLifecycleEdges tries every cause on a fresh job in every state. A
// legal edge enters the state the lifecycle names (the scheduler holding
// the job exactly when it is queued), appends exactly one event — the one
// announcing that state — bumps its counter and, with a journal attached,
// writes exactly one record. An illegal edge is an
// error and changes nothing: state, event stream, journal, metrics.
func TestLifecycleEdges(t *testing.T) {
	legal := map[cause]map[JobState]JobState{
		causeSubmit:    {"": StateQueued},
		causeAdmit:     {StateQueued: StateRunning},
		causeFinishOK:  {StateRunning: StateSucceeded},
		causeFinishErr: {StateQueued: StateFailed, StateRunning: StateFailed},
		causeCancel:    {StateQueued: StateCanceled},
		causeRecover:   {StateQueued: StateQueued, StateRunning: StateQueued},
	}
	counter := map[cause]string{
		causeSubmit:    "cumulond_jobs_submitted_total",
		causeFinishOK:  "cumulond_jobs_completed_total",
		causeFinishErr: "cumulond_jobs_failed_total",
		causeCancel:    "cumulond_jobs_canceled_total",
	}
	froms := []JobState{"", StateQueued, StateRunning, StateSucceeded, StateFailed, StateCanceled}
	for _, durable := range []bool{false, true} {
		for c := causeSubmit; c <= causeRecover; c++ {
			for _, from := range froms {
				t.Run(fmt.Sprintf("durable=%t/cause=%d/from=%q", durable, c, from), func(t *testing.T) {
					cfg := Config{Nodes: 4}
					if durable {
						cfg.StateDir = t.TempDir()
					}
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					written := func() int64 {
						if s.persist == nil {
							return 0
						}
						w, _ := syncMarks(s.persist)
						return w
					}
					s.mu.Lock()
					s.freeNodes = 0 // the scheduler admits nothing behind the test's back
					j := s.store.add(SubmitRequest{Tenant: "t", Program: matmulSource(32), Tile: 16, Nodes: 2})
					j.events = newEventLog(s.cfg.EventBuffer)
					j.status.State = from
					if from == StateQueued { // a queued job is one the scheduler holds
						s.sched.Push(SchedJob{ID: j.id, Tenant: "t", Nodes: 2})
					}
					s.mu.Unlock()
					metrics := metricsText(t, s, "/metrics.json")
					records := written()

					s.mu.Lock()
					if c == causeAdmit {
						s.sched.Next(s.cfg.Nodes, s.now()) // the loop pops a job before admitting it
					}
					err = s.transition(j, c, nil)
					state, queued := j.status.State, scheduled(s, j.id)
					s.mu.Unlock()
					evs, _, _, _, _ := j.events.since(0)
					to, ok := legal[c][from]
					if !ok {
						if err == nil {
							t.Fatalf("illegal edge accepted: now %q", state)
						}
						if state != from || queued != (from == StateQueued) || len(evs) != 0 || written() != records ||
							metricsText(t, s, "/metrics.json") != metrics {
							t.Fatalf("illegal edge changed the job: state %q, scheduled %t, %d events, %d records (was %d), metrics changed %t",
								state, queued, len(evs), written(), records, metricsText(t, s, "/metrics.json") != metrics)
						}
						return
					}
					if err != nil {
						t.Fatalf("legal edge refused: %v", err)
					}
					if state != to || queued != (to == StateQueued) {
						t.Fatalf("state %q (held by the scheduler: %t), want %q", state, queued, to)
					}
					if len(evs) != 1 || evs[0].Type != lifecycleEvent[to] {
						t.Fatalf("events %v, want one %s", evs, lifecycleEvent[to])
					}
					if durable && written() != records+1 {
						t.Fatalf("%d journal records written, want 1", written()-records)
					}
					text := metricsText(t, s, "/metrics")
					for k, name := range counter {
						line := name + `{tenant="t"} 1`
						if has := bytes.Contains([]byte(text), []byte(line)); has != (k == c) {
							t.Fatalf("%s present=%t after the %d edge", line, has, c)
						}
					}
				})
			}
		}
	}
}

// TestCanceledJobsArePruned: canceled jobs are terminal history like any
// other, so job-history retention bounds them too — refused submissions
// are recorded as canceled jobs, and a client retrying them must not grow
// the store without bound.
func TestCanceledJobsArePruned(t *testing.T) {
	s, _ := newTestServer(t, Config{Nodes: 4, JobHistory: 2})
	s.mu.Lock()
	s.freeNodes = 0
	s.mu.Unlock()
	for i := 0; i < 10; i++ {
		st, err := s.Submit(SubmitRequest{Tenant: "t", Program: matmulSource(32), Tile: 16, Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Cancel(st.ID); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	stored, pruned := len(s.store.order), s.store.pruned
	s.mu.Unlock()
	if stored != 2 || pruned != 8 {
		t.Fatalf("store holds %d jobs (pruned %d) after 10 cancels, want 2 (pruned 8)", stored, pruned)
	}
}

// TestRecoveredExplainJobKeepsItsReport: an optimizing job with an EXPLAIN
// report that is still queued when the server stops is re-derived at boot
// with its report, which it serves once it finishes — the same bytes the
// first server rendered.
func TestRecoveredExplainJobKeepsItsReport(t *testing.T) {
	cfg := Config{Nodes: 4, StateDir: t.TempDir()}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.mu.Lock()
	s1.freeNodes = 0
	s1.mu.Unlock()
	st, err := s1.Submit(SubmitRequest{
		Tenant: "a", Program: gnmfSource(), Tile: 4,
		Optimize: true, DeadlineSec: 3600, MaxNodes: 4, Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.mu.Lock()
	report := s1.store.jobs[st.ID].explain
	s1.mu.Unlock()
	if len(report) == 0 {
		t.Fatal("no EXPLAIN report rendered at submit")
	}
	s1.Close()

	s2, ts := newTestServer(t, cfg)
	if fin := awaitTerminal(t, s2, st.ID); fin.State != StateSucceeded {
		t.Fatalf("recovered job: %s (%s)", fin.State, fin.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain after reboot: %d (%s)", resp.StatusCode, body)
	}
	if !bytes.Equal(body, report) {
		t.Fatalf("explain after reboot differs from the report rendered at submit:\n%s\nvs\n%s", body, report)
	}
}

// TestLifecycleRandomSequences drives a durable server with seeded random
// sequences of submissions, cancels, capacity held and freed, drains and
// reboots on the same state directory, and checks at every quiescent
// point: the journal replays to exactly the in-memory store, a reboot
// recovers that same store, every job's last lifecycle event agrees with
// its status, the scheduler holds exactly the queued jobs, and retention
// keeps at most JobHistory terminal jobs.
func TestLifecycleRandomSequences(t *testing.T) {
	const nodes, history = 4, 1
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{Nodes: nodes, StateDir: t.TempDir(), JobHistory: history}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			held := 0 // nodes the test keeps from the scheduler
			// quiesce waits until no job runs and none fits the free
			// nodes. (A run is far shorter than the scheduler's reserve
			// time, so a fitting job is never held back for a wide one.)
			quiesce := func() {
				t.Helper()
				for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
					s.mu.Lock()
					idle := s.running == 0
					for _, sj := range s.sched.queue {
						idle = idle && sj.Nodes > s.freeNodes
					}
					s.mu.Unlock()
					if idle {
						return
					}
					if time.Now().After(deadline) {
						t.Fatal("server never became idle")
					}
				}
			}
			check := func(step int, op string) {
				t.Helper()
				if got, want := replayImage(t, cfg.StateDir), storeImage(t, s); !bytes.Equal(got, want) {
					t.Fatalf("step %d (%s): journal replay differs from memory:\n replay %s\n memory %s", step, op, got, want)
				}
				s.mu.Lock()
				defer s.mu.Unlock()
				terminal := 0
				for _, id := range s.store.order {
					j := s.store.jobs[id]
					if j.status.State.Terminal() {
						terminal++
					}
					if got, want := lastLifecycleEvent(j), lifecycleEvent[j.status.State]; got != want {
						t.Fatalf("step %d (%s): %s is %s but its stream last announced %q", step, op, id, j.status.State, got)
					}
					if scheduled(s, id) != (j.status.State == StateQueued) {
						t.Fatalf("step %d (%s): %s is %s, held by the scheduler: %t", step, op, id, j.status.State, scheduled(s, id))
					}
				}
				if terminal > history {
					t.Fatalf("step %d (%s): %d terminal jobs kept, JobHistory is %d", step, op, terminal, history)
				}
			}
			for step := 0; step < 80; step++ {
				var op string
				switch r := rng.Intn(10); {
				case r < 4:
					op = "submit"
					_, err := s.Submit(SubmitRequest{
						Tenant: fmt.Sprintf("t%d", rng.Intn(2)), Program: matmulSource(32 + rng.Intn(3)),
						Tile: 16, Nodes: 1 + rng.Intn(nodes),
					})
					if err != nil {
						t.Fatalf("step %d: submit: %v", step, err)
					}
				case r < 6:
					op = "cancel"
					s.mu.Lock()
					jobs, _ := s.store.listPage("", StateQueued, "", len(s.store.order)+1)
					if len(jobs) == 0 || rng.Intn(4) == 0 {
						jobs, _ = s.store.listPage("", "", "", len(s.store.order)+1)
					}
					s.mu.Unlock()
					if len(jobs) > 0 {
						s.Cancel(jobs[rng.Intn(len(jobs))].ID) // 409 unless queued
					}
				case r < 7:
					op = "hold capacity"
					s.mu.Lock()
					k := rng.Intn(s.freeNodes + 1)
					s.freeNodes, held = s.freeNodes-k, held+k
					s.mu.Unlock()
				case r < 9:
					op = "free capacity" // and let every queued job finish
					s.mu.Lock()
					s.freeNodes, held = s.freeNodes+held, 0
					s.mu.Unlock()
					s.signal()
				default:
					op = "reboot"
					before := storeImage(t, s)
					s.Close()
					if s, err = New(cfg); err != nil {
						t.Fatalf("step %d: reboot: %v", step, err)
					}
					held = 0
					// Nothing ran at the quiescent point the server stopped
					// at, so the boot's snapshot (written before its
					// scheduler may start the re-queued jobs) is that store.
					_, snap := newestSnapshot(filepath.Join(cfg.StateDir, "jobs"))
					if snap.Jobs == nil {
						snap.Jobs = []persistedJob{}
					}
					if got := mustJSON(t, snap); !bytes.Equal(got, before) {
						t.Fatalf("step %d: reboot recovered\n %s\nbefore it\n %s", step, got, before)
					}
				}
				quiesce()
				check(step, op)
			}
		})
	}
}
