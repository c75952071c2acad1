package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cumulon/internal/workloads"
)

// gnmf3Source is a 3-iteration GNMF, long enough to cross several
// checkpoint boundaries.
func gnmf3Source() string {
	return workloads.GNMF(24, 18, 3, 3, 0.4).Prog.String()
}

// awaitTerminal polls a job directly (no HTTP) until it reaches a
// terminal state.
func awaitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// outputDigests flattens a terminal status's output digests for
// bit-identity comparison across runs.
func outputDigests(st JobStatus) []string {
	var ds []string
	if st.Result == nil {
		return ds
	}
	for _, o := range st.Result.Outputs {
		ds = append(ds, o.Name+":"+o.SHA256)
	}
	return ds
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStatePersisterJournalRecovery exercises the journal layer alone:
// snapshot + replay round trip, last-write-wins upserts, deletions,
// records in the older format, torn-tail tolerance, unreadable-snapshot
// fallback, generation rotation, and the disable() crash hook.
func TestStatePersisterJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	pjob := func(id string, st JobState) persistedJob {
		return persistedJob{
			ID: id, Req: SubmitRequest{Tenant: "t", Program: "W = A * B;"},
			Status: JobStatus{ID: id, Tenant: "t", State: st},
		}
	}

	p, snap, err := openState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 0 || len(snap.Jobs) != 0 {
		t.Fatalf("fresh dir loaded state %+v", snap)
	}
	if err := p.begin(&snapshotFile{Seq: 2, Jobs: []persistedJob{
		pjob("j-000001", StateSucceeded), pjob("j-000002", StateQueued),
	}}); err != nil {
		t.Fatal(err)
	}
	p.put(3, pjob("j-000003", StateRunning))
	p.put(3, pjob("j-000003", StateSucceeded)) // upsert: replay keeps the last write
	p.remove("j-000001")
	p.close()
	// A record as journals carried it before the state lived only in the
	// status: a top-level "state" beside status.state. It replays like any
	// upsert. Then a crash mid-append leaves a torn final line; replay must
	// keep everything before it.
	const oldFormat = `{"op":"put","seq":3,"job":{"id":"j-000003","req":{"tenant":"t","program":"W = A * B;"},"state":"succeeded","status":{"id":"j-000003","tenant":"t","state":"succeeded","nodes":0,"queue_wait_sec":0,"run_sec":1.5,"plan_cache_hit":false}}}`
	f, err := os.OpenFile(filepath.Join(dir, journalName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(oldFormat + "\n" + `{"op":"put","job":{"id":"j-00`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// An unreadable snapshot of a higher generation (a crash before its
	// rename, or disk corruption) must fall back, never wedge the boot.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(9)), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	p2, snap2, err := openState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Seq != 3 {
		t.Fatalf("seq = %d, want 3", snap2.Seq)
	}
	var ids []string
	for _, j := range snap2.Jobs {
		ids = append(ids, j.ID+"/"+string(j.Status.State))
	}
	want := []string{"j-000002/queued", "j-000003/succeeded"}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("recovered jobs %v, want %v", ids, want)
	}
	same := pjob("j-000003", StateSucceeded)
	same.Status.RunSec = 1.5
	if got, want := mustJSON(t, snap2.Jobs[1]), mustJSON(t, same); !bytes.Equal(got, want) {
		t.Fatalf("old-format record recovered as\n %s\nwant\n %s", got, want)
	}
	if err := p2.begin(snap2); err != nil {
		t.Fatal(err)
	}
	// Rotation: the old generation is garbage once the new one is durable.
	if _, err := os.Stat(filepath.Join(dir, snapshotName(1))); !os.IsNotExist(err) {
		t.Fatal("generation 1 snapshot survived rotation")
	}
	if _, err := os.Stat(filepath.Join(dir, journalName(1))); !os.IsNotExist(err) {
		t.Fatal("generation 1 journal survived rotation")
	}
	p2.put(9, pjob("j-000009", StateQueued))
	p2.disable() // the SIGKILL instant: nothing after it reaches disk
	p2.put(10, pjob("j-000010", StateQueued))
	p2.close()

	p3, snap3, err := openState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p3.close()
	if snap3.Seq != 9 || len(snap3.Jobs) != 3 {
		t.Fatalf("after crash: seq %d, %d jobs; want 9, 3", snap3.Seq, len(snap3.Jobs))
	}
	for _, j := range snap3.Jobs {
		if j.ID == "j-000010" {
			t.Fatal("post-kill transition reached the journal")
		}
	}
}

// TestServerRestartRecovery is the crash/reboot acceptance test: a
// cumulond with a state directory is killed with a mix of finished,
// canceled, queued and mid-run jobs, and a fresh server on the same
// directory must serve the pre-crash history byte-for-byte (status,
// output digests, retained artifacts) and drive every unfinished job to
// completion — the mid-run one resuming from its program checkpoint
// with bit-identical outputs.
//
// The kill image is built deterministically: a real server produces the
// history, then the exact journal a process dying mid-run would leave
// (a job caught at state "running", another still "queued", a torn
// final line) is appended before reboot. disable() freezes writes at
// the kill instant, so nothing later leaks to disk.
func TestServerRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Nodes: 4, StateDir: dir} // every job takes 4 nodes: strictly serial

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Job A: completes before the crash; its checkpoints seed the store
	// and its status/artifacts are the recovery oracle.
	reqA := SubmitRequest{
		Tenant: "alpha", Program: gnmf3Source(),
		Tile: 4, Density: 0.4, Seed: 101,
		Materialize: true, Trace: true, CheckpointEvery: 1,
	}
	stA0, err := s1.Submit(reqA)
	if err != nil {
		t.Fatal(err)
	}
	stA := awaitTerminal(t, s1, stA0.ID)
	if stA.State != StateSucceeded {
		t.Fatalf("job A: %s (%s)", stA.State, stA.Error)
	}
	if stA.Result.Checkpoints == 0 {
		t.Fatal("job A wrote no checkpoints")
	}
	if stA.Result.ResumedStmt != 0 {
		t.Fatal("job A had nothing to resume from")
	}
	manifests, _ := filepath.Glob(filepath.Join(dir, "ckpt", "*", "iter-*", "manifest.json"))
	if len(manifests) == 0 {
		t.Fatal("no checkpoint manifests under the state dir")
	}
	s1.mu.Lock()
	normA := s1.store.jobs[stA.ID].req // normalized request, as journaled
	var traceA []byte
	if a := s1.store.jobs[stA.ID].artifacts; a != nil {
		traceA = append([]byte(nil), a.Trace...)
	}
	s1.mu.Unlock()
	if len(traceA) == 0 {
		t.Fatal("job A retained no trace artifact")
	}

	// Choke capacity so jobs C and D stay queued, then cancel D.
	s1.mu.Lock()
	s1.freeNodes = 0
	s1.mu.Unlock()
	reqC := normA
	reqC.Tenant, reqC.Trace = "beta", false
	stC, err := s1.Submit(reqC) // j-000002: queued at the crash
	if err != nil {
		t.Fatal(err)
	}
	stD, err := s1.Submit(SubmitRequest{Tenant: "alpha", Program: gnmfSource()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Cancel(stD.ID); err != nil { // j-000003: canceled history
		t.Fatal(err)
	}
	s1.Close()

	// Append the kill-instant tail: job B was admitted and mid-run (its
	// terminal transition never made it to disk), job E was queued, and
	// the final line is torn. This is byte-for-byte what a SIGKILLed
	// process leaves behind.
	reqB := normA
	reqB.Trace = false
	reqE := reqB
	reqE.Seed = 202 // different seed: no checkpoint to resume from
	jf, err := os.OpenFile(filepath.Join(dir, "jobs", journalName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		seq int
		pj  persistedJob
	}{
		{4, persistedJob{ID: "j-000004", Req: reqB,
			Status: JobStatus{ID: "j-000004", Tenant: reqB.Tenant, State: StateRunning, Nodes: reqB.Nodes, QueueWaitSec: 0.25}}},
		{5, persistedJob{ID: "j-000005", Req: reqE,
			Status: JobStatus{ID: "j-000005", Tenant: reqE.Tenant, State: StateQueued, Nodes: reqE.Nodes}}},
	} {
		rec, err := json.Marshal(journalRecord{Op: "put", Seq: e.seq, Job: &e.pj})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jf.Write(append(rec, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := jf.WriteString(`{"op":"put","seq":6,"job":{"id":"j-0`); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	// Reboot. The restarted server must list the full pre-crash history
	// and finish what was in flight.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, st := range listAll(s2) {
		ids = append(ids, st.ID)
	}
	wantIDs := []string{"j-000001", "j-000002", "j-000003", "j-000004", "j-000005"}
	if !reflect.DeepEqual(ids, wantIDs) {
		t.Fatalf("recovered job list %v, want %v", ids, wantIDs)
	}
	stA2, ok := s2.Status(stA.ID)
	if !ok || !reflect.DeepEqual(stA2, stA) {
		t.Fatalf("job A status did not round-trip:\n pre-crash %+v\n recovered %+v", stA, stA2)
	}
	s2.mu.Lock()
	var traceA2 []byte
	if a := s2.store.jobs[stA.ID].artifacts; a != nil {
		traceA2 = a.Trace
	}
	s2.mu.Unlock()
	if !bytes.Equal(traceA2, traceA) {
		t.Fatal("job A trace artifact did not survive the restart")
	}
	if stD2, ok := s2.Status(stD.ID); !ok || stD2.State != StateCanceled {
		t.Fatalf("canceled job D recovered as %+v", stD2)
	}

	// The mid-run job resumes from job A's newest checkpoint (same
	// program, seed and configuration) and lands bit-identically.
	stB := awaitTerminal(t, s2, "j-000004")
	if stB.State != StateSucceeded {
		t.Fatalf("job B: %s (%s)", stB.State, stB.Error)
	}
	if stB.Result.ResumedStmt == 0 {
		t.Fatal("re-admitted job B did not resume from a checkpoint")
	}
	if !reflect.DeepEqual(outputDigests(stB), outputDigests(stA)) {
		t.Fatalf("job B outputs diverged after resume:\n %v\n vs %v",
			outputDigests(stB), outputDigests(stA))
	}
	stC2 := awaitTerminal(t, s2, stC.ID)
	if stC2.State != StateSucceeded {
		t.Fatalf("job C: %s (%s)", stC2.State, stC2.Error)
	}
	if !reflect.DeepEqual(outputDigests(stC2), outputDigests(stA)) {
		t.Fatal("re-queued job C outputs diverged")
	}
	stE := awaitTerminal(t, s2, "j-000005")
	if stE.State != StateSucceeded {
		t.Fatalf("job E: %s (%s)", stE.State, stE.Error)
	}
	if stE.Result.ResumedStmt != 0 {
		t.Fatal("job E resumed from a foreign checkpoint (seed is not in the key?)")
	}

	// The ID sequence survived: new work continues after the crash gap.
	stF, err := s2.Submit(SubmitRequest{Tenant: "alpha", Program: gnmfSource()})
	if err != nil {
		t.Fatal(err)
	}
	if stF.ID != "j-000006" {
		t.Fatalf("post-restart job got ID %s, want j-000006", stF.ID)
	}
	awaitTerminal(t, s2, stF.ID)
	s2.Close()

	// A second, clean restart (generation rotation) keeps everything.
	s3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := len(listAll(s3)); got != 6 {
		t.Fatalf("after second restart: %d jobs, want 6", got)
	}
	stA3, ok := s3.Status(stA.ID)
	if !ok || !reflect.DeepEqual(stA3, stA) {
		t.Fatal("job A status drifted across restarts")
	}
	if stB3, ok := s3.Status("j-000004"); !ok || !reflect.DeepEqual(stB3, stB) {
		t.Fatal("job B terminal status drifted across restarts")
	}
}
