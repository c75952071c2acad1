package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cumulon/internal/workloads"
)

// matmulSource is a small virtual job: one multiply, a few tasks.
func matmulSource(m int) string {
	return workloads.MatMul(m, 48, 64).Prog.String()
}

// swapSync replaces the journal's sync call for the test. Register it
// before the server so the server closes under the substitute.
func swapSync(t *testing.T, fn func(*os.File) error) {
	t.Helper()
	old := syncFile
	syncFile = fn
	t.Cleanup(func() { syncFile = old })
}

// syncMarks reads the persister's written and on-disk record counts.
func syncMarks(p *statePersister) (written, synced int64) {
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.written, p.synced
}

// storeImage renders the in-memory store the way a snapshot would.
func storeImage(t *testing.T, s *Server) []byte {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	img := snapshotFile{Seq: s.store.seq, Jobs: []persistedJob{}}
	for _, id := range s.store.order {
		img.Jobs = append(img.Jobs, s.persistedOf(s.store.jobs[id]))
	}
	b, err := json.Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// replayImage renders what a boot on the state directory would recover.
func replayImage(t *testing.T, stateDir string) []byte {
	t.Helper()
	_, snap, err := openState(filepath.Join(stateDir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Jobs == nil {
		snap.Jobs = []persistedJob{}
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGroupCommitCoalescesAndAcksAfterSync: 8 clients submit 50 durable
// jobs each against a sync that takes a millisecond. Every Submit must
// return only once its own record is at or below the on-disk mark, the
// clients must share syncs, a Cancel and a Close racing the submits must
// leave nothing unsynced, and replaying the journal must reproduce the
// in-memory store exactly (retention deletes included).
func TestGroupCommitCoalescesAndAcksAfterSync(t *testing.T) {
	var syncs atomic.Int64
	swapSync(t, func(f *os.File) error {
		syncs.Add(1)
		time.Sleep(time.Millisecond)
		return f.Sync()
	})
	dir := t.TempDir()
	s, err := New(Config{Nodes: 16, StateDir: dir, JobHistory: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	journal := filepath.Join(dir, "jobs", journalName(1))

	const clients, perClient = 8, 50
	var refused atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				st, err := s.Submit(SubmitRequest{
					Tenant: fmt.Sprintf("t%d", c%3), Program: matmulSource(32 + c), Tile: 16, Nodes: 2,
				})
				if err != nil {
					var ae *apiError
					if !errors.As(err, &ae) || ae.msg != "server is shutting down" {
						t.Errorf("client %d submit %d: %v", c, k, err)
					}
					refused.Add(1)
					continue
				}
				// The mark first, the file second: the mark only grows.
				_, synced := syncMarks(s.persist)
				raw, err := os.ReadFile(journal)
				if err != nil {
					t.Errorf("read journal: %v", err)
					return
				}
				at := bytes.Index(raw, []byte(`"job":{"id":"`+st.ID+`"`))
				if at < 0 {
					t.Errorf("%s acknowledged with no journal record", st.ID)
					continue
				}
				if rec := int64(bytes.Count(raw[:at], []byte("\n"))) + 1; rec > synced {
					t.Errorf("%s acknowledged at record %d with only %d on disk", st.ID, rec, synced)
				}
			}
		}(c)
	}
	// A cancel, then the shutdown, while the clients are still submitting.
	for {
		if written, _ := syncMarks(s.persist); written > 1100 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	last := s.store.order[len(s.store.order)-1]
	s.mu.Unlock()
	if _, err := s.Cancel(last); err != nil {
		var ae *apiError
		if !errors.As(err, &ae) || ae.code != http.StatusConflict {
			t.Errorf("cancel %s: %v", last, err)
		}
	}
	s.Close()
	wg.Wait()

	written, synced := syncMarks(s.persist)
	if synced != written {
		t.Fatalf("after Close %d records written, %d on disk", written, synced)
	}
	if n := syncs.Load(); n >= written {
		t.Fatalf("%d syncs for %d records: nothing was shared", n, written)
	}
	if refused.Load() == clients*perClient {
		t.Fatal("every submission was refused")
	}
	if got, want := replayImage(t, dir), storeImage(t, s); !bytes.Equal(got, want) {
		t.Fatalf("journal replay differs from the in-memory store:\n replay %s\n memory %s", got, want)
	}
	t.Logf("%d records, %d syncs, %d submissions refused by the shutdown", written, syncs.Load(), refused.Load())
}

// TestSyncRunsOutsideServerLock: while a journal sync is stuck, every read
// the API serves under s.mu still answers, and the scheduler still starts
// the job whose submission is waiting for that sync.
func TestSyncRunsOutsideServerLock(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	swapSync(t, func(f *os.File) error {
		select {
		case entered <- struct{}{}:
			<-release
		default: // later syncs pass: only the first is held
		}
		return f.Sync()
	})
	s, ts := newTestServer(t, Config{Nodes: 8, StateDir: t.TempDir()})

	acked := make(chan JobStatus, 1)
	go func() {
		st, err := s.Submit(SubmitRequest{Tenant: "t", Program: matmulSource(32), Tile: 16, Nodes: 2})
		if err != nil {
			t.Errorf("submit: %v", err)
		}
		acked <- st
	}()
	<-entered
	reads := make(chan error, 1)
	go func() {
		for _, path := range []string{"/v1/jobs/j-000001", "/v1/stats", "/v1/jobs", "/metrics"} {
			resp, err := http.Get(ts.URL + path)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("GET %s: %s", path, resp.Status)
				}
			}
			if err != nil {
				reads <- err
				return
			}
		}
		// The job runs beside the sync its acknowledgement waits for.
		for {
			if st, _ := s.Status("j-000001"); st.State != StateQueued {
				reads <- nil
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case err := <-reads:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("reads queued behind a journal sync: s.mu is held across it")
	}
	select {
	case st := <-acked:
		t.Fatalf("submission of %s acknowledged before its sync finished", st.ID)
	default:
	}
	close(release)
	if st := <-acked; st.ID != "j-000001" {
		t.Fatalf("acknowledged %q, want j-000001", st.ID)
	}
	awaitTerminal(t, s, "j-000001")
}

// TestJournalFailureRefusesSubmissions: once a journal write or sync has
// failed no submission is acknowledged — the one that met the failure is
// canceled, not run behind the client's back, later ones get the same
// 503 — while jobs admitted before it still finish and reads still serve.
func TestJournalFailureRefusesSubmissions(t *testing.T) {
	for _, mode := range []string{"write", "sync"} {
		t.Run(mode, func(t *testing.T) {
			var failing atomic.Bool
			swapSync(t, func(f *os.File) error {
				if failing.Load() {
					return errors.New("disk on fire")
				}
				return f.Sync()
			})
			s, ts := newTestServer(t, Config{Nodes: 4, StateDir: t.TempDir()})
			req := SubmitRequest{Tenant: "t", Program: matmulSource(32), Tile: 16, Nodes: 4}
			setFree := func(n int) {
				s.mu.Lock()
				s.freeNodes = n
				s.mu.Unlock()
				s.signal()
			}
			refused := func(when string) {
				t.Helper()
				_, err := s.Submit(req)
				var ae *apiError
				if !errors.As(err, &ae) || ae.code != http.StatusServiceUnavailable ||
					!strings.HasPrefix(ae.msg, "journal unavailable: ") {
					t.Fatalf("submission %s: %v, want 503 journal unavailable", when, err)
				}
				jobs := listAll(s)
				if st := jobs[len(jobs)-1]; st.State != StateCanceled {
					t.Fatalf("submission %s left %s %s, want canceled", when, st.ID, st.State)
				}
			}
			setFree(0) // the admitted job waits out the failure in the queue
			admitted, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "write" {
				s.persist.mu.Lock()
				s.persist.f.Close()
				s.persist.mu.Unlock()
			} else {
				failing.Store(true)
			}
			refused("that met the failure")
			refused("after the failure")
			// The job acknowledged before the failure still runs to the end.
			setFree(4)
			if st := awaitTerminal(t, s, admitted.ID); st.State != StateSucceeded {
				t.Fatalf("admitted job: %s (%s)", st.State, st.Error)
			}
			if mode == "write" {
				// With capacity free only the refusal itself keeps the job
				// from the scheduler: it is canceled under the lock that
				// admitted it.
				refused("with capacity free")
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			text, _ := io.ReadAll(resp.Body)
			if !regexp.MustCompile(`(?m)^cumulond_journal_errors_total [1-9]`).Match(text) {
				t.Fatalf("/metrics does not count the journal failure:\n%s", text)
			}
		})
	}
}

// TestJournalMetricsFedByFlush: the sync histogram and the records-per-sync
// histogram render on both metrics endpoints of a durable server, and
// agree with the persister's own marks.
func TestJournalMetricsFedByFlush(t *testing.T) {
	s, ts := newTestServer(t, Config{Nodes: 8, StateDir: t.TempDir()})
	for i := 0; i < 3; i++ {
		await(t, ts.URL, submit(t, ts.URL, SubmitRequest{Tenant: "t", Program: matmulSource(32), Tile: 16, Nodes: 2}).ID)
	}
	s.persist.flush()
	_, synced := syncMarks(s.persist)
	for path, wants := range map[string][]string{
		"/metrics": {
			`cumulond_journal_sync_seconds_bucket{le="`,
			fmt.Sprintf("cumulond_journal_records_per_sync_sum %d\n", synced),
			"cumulond_journal_errors_total 0\n",
		},
		"/metrics.json": {`"cumulond_journal_sync_seconds"`, `"cumulond_journal_records_per_sync"`},
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range wants {
			if !strings.Contains(string(body), want) {
				t.Fatalf("%s missing %q in:\n%s", path, want, body)
			}
		}
	}
}

// TestDeploymentCacheVerdictIsPerSubmission: deployment_cache_hit reports
// the submission's own lookup. A warm and a cold optimizing submission
// race each round; the cold one must never report the warm one's hit.
func TestDeploymentCacheVerdictIsPerSubmission(t *testing.T) {
	s, _ := newTestServer(t, Config{Nodes: 4})
	opt := func(src string) SubmitRequest {
		return SubmitRequest{Tenant: "t", Program: src, Tile: 16, Optimize: true, DeadlineSec: 24 * 3600}
	}
	warm := opt(matmulSource(40))
	if st, err := s.Submit(warm); err != nil || st.DeploymentCacheHit {
		t.Fatalf("warm-up: hit=%t err=%v", st.DeploymentCacheHit, err)
	}
	for round := 0; round < 6; round++ {
		cold := opt(matmulSource(41 + round))
		var wg sync.WaitGroup
		for _, c := range []struct {
			req  SubmitRequest
			want bool
		}{{warm, true}, {cold, false}} {
			wg.Add(1)
			go func(req SubmitRequest, want bool) {
				defer wg.Done()
				st, err := s.Submit(req)
				if err != nil {
					t.Errorf("round %d: %v", round, err)
				} else if st.DeploymentCacheHit != want {
					t.Errorf("round %d: %s reports deployment_cache_hit=%t, want %t", round, st.ID, st.DeploymentCacheHit, want)
				}
			}(c.req, c.want)
		}
		wg.Wait()
	}
}

// sameJSON compares two values as the API would render them (a nil and an
// empty slice are the same answer).
func sameJSON(a, b any) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}

// copyTree copies a state directory.
func copyTree(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.Walk(from, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashAtEveryJournalRecordBoundary kills the daemon, in effect, after
// every record its journal ever held — and once in the middle of each, for
// the torn tail — and boots a fresh server on what was on disk: a virtual
// job, a checkpointing materialized GNMF, a canceled job and enough
// completions to prune history. Whatever the cut, the recovered ids are
// the admitted ones in order minus the pruned, a job that was terminal on
// disk reads exactly as the uninterrupted run left it, every other job
// runs again to the uninterrupted run's result, and a new submission gets
// an id no job ever had.
func TestCrashAtEveryJournalRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	// Every job takes the whole cluster: strictly serial, so the journal's
	// order is the same on every run.
	s1, err := New(Config{Nodes: 4, StateDir: dir, JobHistory: 3})
	if err != nil {
		t.Fatal(err)
	}
	virtual := SubmitRequest{Tenant: "alpha", Program: matmulSource(32), Tile: 16, Nodes: 4}
	gnmf := SubmitRequest{
		Tenant: "beta", Program: gnmf3Source(), Tile: 4, Density: 0.4, Seed: 7, Nodes: 4,
		Materialize: true, CheckpointEvery: 1,
	}
	oracle := map[string]JobStatus{}
	run := func(req SubmitRequest) {
		t.Helper()
		st, err := s1.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if oracle[st.ID] = awaitTerminal(t, s1, st.ID); oracle[st.ID].State != StateSucceeded {
			t.Fatalf("oracle run of %s: %+v", st.ID, oracle[st.ID])
		}
	}
	run(virtual)
	run(gnmf)
	s1.mu.Lock()
	s1.freeNodes = 0
	s1.mu.Unlock()
	queued, err := s1.Submit(virtual)
	if err != nil {
		t.Fatal(err)
	}
	if oracle[queued.ID], err = s1.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	s1.mu.Lock()
	s1.freeNodes = 4
	s1.mu.Unlock()
	run(virtual)
	run(gnmf)
	run(virtual)
	s1.Close()

	raw, err := os.ReadFile(filepath.Join(dir, "jobs", journalName(1)))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	lines[len(lines)-1] = append(lines[len(lines)-1], '\n')
	if !bytes.Contains(raw, []byte(`"op":"delete"`)) {
		t.Fatal("the oracle run pruned nothing: no delete record to cut at")
	}

	// sameOutcome: a re-run job lands where the uninterrupted run did. Run
	// time and resume bookkeeping legitimately differ; the result does not.
	sameOutcome := func(got, want JobStatus) bool {
		if want.State == StateCanceled {
			// Lost the cancel: the job runs, as the same virtual job did.
			want = oracle["j-000001"]
		}
		return got.State == want.State && reflect.DeepEqual(outputDigests(got), outputDigests(want)) &&
			(got.Result.Outputs != nil || got.Result.TotalSeconds == want.Result.TotalSeconds)
	}
	for cut := 0; cut <= len(lines); cut++ {
		for _, torn := range []bool{false, true} {
			if torn && cut == len(lines) {
				continue
			}
			name := fmt.Sprintf("records=%d,torn=%t", cut, torn)
			// What the prefix holds, read straight off its records.
			state := map[string]JobState{}
			maxSeq := 0
			for _, line := range lines[:cut] {
				var rec journalRecord
				if err := json.Unmarshal(line, &rec); err != nil {
					t.Fatal(err)
				}
				if rec.Seq > maxSeq {
					maxSeq = rec.Seq
				}
				if rec.Op == "delete" {
					delete(state, rec.ID)
				} else {
					state[rec.Job.ID] = rec.Job.Status.State
				}
			}
			prefix := bytes.Join(lines[:cut], nil)
			if torn {
				prefix = append(prefix, lines[cut][:len(lines[cut])/2]...)
			}
			boot := t.TempDir()
			copyTree(t, dir, boot)
			if err := os.WriteFile(filepath.Join(boot, "jobs", journalName(1)), prefix, 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := New(Config{Nodes: 4, StateDir: boot})
			if err != nil {
				t.Fatalf("%s: boot: %v", name, err)
			}
			var want []string
			for n := 1; n <= maxSeq; n++ {
				if id := fmt.Sprintf("j-%06d", n); state[id] != "" {
					want = append(want, id)
				}
			}
			var got []string
			for _, st := range listAll(s2) {
				got = append(got, st.ID)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: recovered %v, want %v", name, got, want)
			}
			for _, id := range want {
				if state[id].Terminal() {
					if st, _ := s2.Status(id); !sameJSON(st, oracle[id]) {
						t.Fatalf("%s: %s was terminal on disk and changed:\n oracle    %+v\n recovered %+v", name, id, oracle[id], st)
					}
				} else if st := awaitTerminal(t, s2, id); !sameOutcome(st, oracle[id]) {
					t.Fatalf("%s: %s re-ran to a different result:\n oracle %+v\n re-run %+v", name, id, oracle[id], st)
				}
			}
			fresh, err := s2.Submit(virtual)
			if err != nil {
				t.Fatalf("%s: fresh submission: %v", name, err)
			}
			if wantID := fmt.Sprintf("j-%06d", maxSeq+1); fresh.ID != wantID {
				t.Fatalf("%s: fresh submission got %s, want %s", name, fresh.ID, wantID)
			}
			s2.Close()
		}
	}
}
