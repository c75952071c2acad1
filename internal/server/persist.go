package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cumulon/internal/lang"
	"cumulon/internal/obs"
)

// Job-store durability: cumulond configured with a state directory
// journals every job transition and recovers the store on boot, so a
// killed server comes back with its full job history, re-queues jobs
// that were waiting, and re-admits jobs that were running (which then
// resume from their program checkpoints, see internal/ckpt).
//
// Layout under <state-dir>/jobs, generation-rotated:
//
//	snapshot-<gen>.json   full store state at boot of generation gen
//	journal-<gen>.jsonl   one record per transition since that snapshot
//
// Boot loads the newest readable snapshot, replays its journal
// (tolerating a torn final line from the crash), reconciles, writes
// snapshot-<gen+1> atomically, and starts journaling to
// journal-<gen+1>; older generations are then deleted. A record is
// a full upsert of one job, so replay is last-write-wins and a crash
// between any two writes loses at most the final transition.
//
// Journaling is group commit in two halves: append writes a record under
// the server lock, so the file's order is the order of state transitions;
// flush, called once that lock is released, returns when every record
// written before the call is on disk, and callers that arrive together
// share one sync. A submission's answer, a cancel's answer and a worker's
// exit (hence Close) wait for the disk. The scheduler's "running" record
// and retention deletes ride along with the next sync: recovery re-queues
// queued and running jobs alike, and a lost delete is pruned again at the
// next terminal transition. A terminal event reaches the job's event stream before
// its record is durable; a job seen succeeded and lost to a crash in that
// window is re-run to the same digests, as a job killed mid-run is.

// persistedJob is one job as the journal and snapshot record it: the
// normalized request (defaults already applied at admission), the
// client-visible status, which carries the lifecycle state, and any
// retained artifacts. Records from before the state lived only in the
// status also carry it at top level; decoding ignores that copy.
type persistedJob struct {
	ID        string        `json:"id"`
	Req       SubmitRequest `json:"req"`
	Status    JobStatus     `json:"status"`
	Artifacts *artifactSet  `json:"artifacts,omitempty"`
}

// snapshotFile is the full store state at the start of a generation.
type snapshotFile struct {
	// Seq is the job-ID sequence high-water mark.
	Seq int `json:"seq"`
	// Jobs are in admission order.
	Jobs []persistedJob `json:"jobs"`
}

// journalRecord is one journal line.
type journalRecord struct {
	// Op is "put" (upsert Job) or "delete" (drop ID, from retention
	// pruning).
	Op string `json:"op"`
	// Seq is the store's ID sequence at write time, so replay restores
	// the high-water mark even when the newest job was later deleted.
	Seq int           `json:"seq,omitempty"`
	Job *persistedJob `json:"job,omitempty"`
	ID  string        `json:"id,omitempty"`
}

// statePersister owns the journal file of the current generation.
// put/remove are called under the server lock, flush outside it;
// disable() makes every subsequent write a no-op (the crash test hook
// uses it to freeze the on-disk state at the "kill" instant).
type statePersister struct {
	// mu guards the write half — the file, the count of records written to
	// it, the first write or sync error, which is final — and the two
	// histograms flush feeds.
	mu       sync.Mutex
	dir      string
	gen      int
	f        *os.File
	disabled bool
	written  int64
	err      error
	// errs counts the records dropped and flushes refused because of err.
	errs atomic.Int64

	// syncMu serializes syncs and guards the records-on-disk mark. It is
	// taken before mu, never under it.
	syncMu      sync.Mutex
	synced      int64
	syncSec     *obs.HistSeries
	recsPerSync *obs.HistSeries
}

// syncFile puts a journal file's written records on disk; tests replace
// it to count, delay or fail syncs.
var syncFile = (*os.File).Sync

// openState loads the recovered store state from dir (creating it when
// absent): the newest readable snapshot plus its journal replayed over
// it. It does not write anything yet — the server reconciles the state
// (re-queuing in-flight jobs) and then calls begin with the result.
func openState(dir string) (*statePersister, *snapshotFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("state dir: %w", err)
	}
	p := &statePersister{dir: dir}
	gen, snap := newestSnapshot(dir)
	replayJournal(filepath.Join(dir, journalName(gen)), snap)
	p.gen = gen
	return p, snap, nil
}

func snapshotName(gen int) string { return fmt.Sprintf("snapshot-%d.json", gen) }
func journalName(gen int) string  { return fmt.Sprintf("journal-%d.jsonl", gen) }

// newestSnapshot returns the highest generation whose snapshot file
// parses, with that snapshot's state (generation 0 and an empty state
// when none exists).
func newestSnapshot(dir string) (int, *snapshotFile) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, &snapshotFile{}
	}
	var gens []int
	for _, e := range ents {
		name, ok := strings.CutPrefix(e.Name(), "snapshot-")
		if !ok {
			continue
		}
		name, ok = strings.CutSuffix(name, ".json")
		if !ok {
			continue
		}
		if g, err := strconv.Atoi(name); err == nil && g >= 1 {
			gens = append(gens, g)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(gens)))
	for _, g := range gens {
		raw, err := os.ReadFile(filepath.Join(dir, snapshotName(g)))
		if err != nil {
			continue
		}
		var snap snapshotFile
		if err := json.Unmarshal(raw, &snap); err != nil {
			continue // torn snapshot write: fall back to the previous generation
		}
		return g, &snap
	}
	return 0, &snapshotFile{}
}

// replayJournal applies journal records onto snap in order, stopping at
// the first malformed line (the torn tail of a crashed write). Upserts
// keep first-seen (admission) order.
func replayJournal(path string, snap *snapshotFile) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	index := map[string]int{}
	for i, j := range snap.Jobs {
		index[j.ID] = i
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return // torn tail; everything before it is intact
		}
		if rec.Seq > snap.Seq {
			snap.Seq = rec.Seq
		}
		switch rec.Op {
		case "put":
			if rec.Job == nil {
				return
			}
			if i, ok := index[rec.Job.ID]; ok {
				snap.Jobs[i] = *rec.Job
			} else {
				index[rec.Job.ID] = len(snap.Jobs)
				snap.Jobs = append(snap.Jobs, *rec.Job)
			}
		case "delete":
			if i, ok := index[rec.ID]; ok {
				snap.Jobs = append(snap.Jobs[:i], snap.Jobs[i+1:]...)
				delete(index, rec.ID)
				for id, k := range index {
					if k > i {
						index[id] = k - 1
					}
				}
			}
		default:
			return // unknown op: treat as corruption, stop replay
		}
	}
}

// begin starts the next generation: it writes the reconciled state as
// the new snapshot (atomically), opens its journal for appending, and
// removes older generations.
func (p *statePersister) begin(snap *snapshotFile) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	gen := p.gen + 1
	enc, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("state snapshot: %w", err)
	}
	tmp := filepath.Join(p.dir, snapshotName(gen)+".tmp")
	if err := os.WriteFile(tmp, enc, 0o644); err != nil {
		return fmt.Errorf("state snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(p.dir, snapshotName(gen))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("state snapshot: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(p.dir, journalName(gen)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("state journal: %w", err)
	}
	old := p.gen
	p.gen, p.f = gen, f
	// The new generation is durable; older ones are garbage.
	for g := old; g >= 1; g-- {
		os.Remove(filepath.Join(p.dir, snapshotName(g)))
		os.Remove(filepath.Join(p.dir, journalName(g)))
	}
	return nil
}

// append writes one journal record; flush makes it durable. It returns
// the journal's error: a journal with a hole cannot vouch for later
// records, so after the first failure nothing more is written.
func (p *statePersister) append(rec journalRecord) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.disabled || p.f == nil {
		return nil
	}
	if p.err == nil {
		enc, err := json.Marshal(rec)
		if err == nil {
			_, err = p.f.Write(append(enc, '\n'))
		}
		p.err = err
	}
	if p.err != nil {
		p.errs.Add(1)
		return p.err
	}
	p.written++
	return nil
}

// flush returns once every record appended before the call is on disk.
// One sync covers everything written when it starts, so of the callers
// that arrive during a sync the first issues the next one and the rest
// find their records covered by it. No lock an appender needs is held
// across the sync.
func (p *statePersister) flush() error {
	p.mu.Lock()
	mine := p.written
	p.mu.Unlock()
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	p.mu.Lock()
	f, upto, err := p.f, p.written, p.err
	p.mu.Unlock()
	if err == nil && f != nil && p.synced < mine {
		start := time.Now()
		if err = syncFile(f); err == nil {
			p.mu.Lock()
			if p.syncSec != nil {
				p.syncSec.Observe(time.Since(start).Seconds())
				p.recsPerSync.Observe(float64(upto - p.synced))
			}
			p.mu.Unlock()
			p.synced = upto
		}
	}
	if err != nil {
		p.mu.Lock()
		p.err = err
		p.mu.Unlock()
		p.errs.Add(1)
	}
	return err
}

// put journals an upsert of one job.
func (p *statePersister) put(seq int, j persistedJob) error {
	return p.append(journalRecord{Op: "put", Seq: seq, Job: &j})
}

// remove journals a retention-prune deletion.
func (p *statePersister) remove(id string) {
	p.append(journalRecord{Op: "delete", ID: id})
}

// disable freezes the on-disk state: every later write is dropped. The
// crash-restart test uses it as the SIGKILL instant — transitions after
// it never reach the journal, exactly as if the process had died.
func (p *statePersister) disable() {
	p.mu.Lock()
	p.disabled = true
	p.mu.Unlock()
}

// close stops journaling, syncs what was written and closes the file.
func (p *statePersister) close() {
	p.disable()
	p.flush()
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f != nil {
		p.f.Close()
		p.f = nil
	}
}

// persistedOf renders a job for the journal. Callers hold s.mu.
func (s *Server) persistedOf(j *job) persistedJob {
	return persistedJob{ID: j.id, Req: j.req, Status: j.status, Artifacts: j.artifacts}
}

// journalFailed returns the journal's error, final once set, as the 503 a
// client sees: every record written since was dropped. Callers hold s.mu.
func (s *Server) journalFailed() error {
	if s.persist == nil {
		return nil
	}
	s.persist.mu.Lock()
	defer s.persist.mu.Unlock()
	return journalErr(s.persist.err)
}

// flushJournal returns once every journal record written so far is on
// disk. Callers do not hold s.mu: no sync runs under it.
func (s *Server) flushJournal() error {
	if s.persist == nil {
		return nil
	}
	return journalErr(s.persist.flush())
}

func journalErr(err error) error {
	if err == nil {
		return nil
	}
	return &apiError{code: http.StatusServiceUnavailable, msg: fmt.Sprintf("journal unavailable: %v", err)}
}

// recover rebuilds the job store from a loaded state: terminal jobs
// become history (artifacts restored, event streams closed with their
// terminal event), and queued or running jobs are re-admitted — a job
// that was mid-run when the server died is simply queued again, and
// its execution resumes from the newest program checkpoint it wrote
// (same program and configuration, so the checkpoint store covers it).
// Called from New before the scheduler loop starts and before s.persist
// is set, so nothing is journaled; no lock needed.
func (s *Server) recover(snap *snapshotFile) {
	s.store.seq = snap.Seq
	for i := range snap.Jobs {
		pj := &snap.Jobs[i]
		if n, err := strconv.Atoi(strings.TrimPrefix(pj.ID, "j-")); err == nil && n > s.store.seq {
			s.store.seq = n
		}
		j := &job{id: pj.ID, req: pj.Req, status: pj.Status, artifacts: pj.Artifacts,
			events: newEventLog(s.cfg.EventBuffer)}
		s.store.jobs[j.id] = j
		s.store.order = append(s.store.order, j.id)
		if !j.status.State.Terminal() {
			s.readmit(j)
			continue
		}
		s.retain(j)
		// The pre-crash event stream is gone; close the recovered one
		// with the terminal outcome so consumers still see completion.
		j.events.append(stateEvent(j.status), true)
	}
}

// readmit re-queues a recovered non-terminal job: the request was
// already validated and normalized at its original admission, so only
// the submit-time derivations (parse, optimizer search, EXPLAIN report)
// rerun — all deterministic, so an optimizing job gets the same
// deployment it had. A job they no longer admit fails.
func (s *Server) readmit(j *job) {
	prog, err := lang.Parse(j.req.Program)
	if err == nil {
		_, err = prog.Validate()
	}
	if err == nil && j.req.Optimize {
		var met bool
		j.dep, met, j.explain, _, err = s.search(prog, j.req)
		if err == nil && !met {
			err = fmt.Errorf("optimize: constraint no longer satisfiable")
		}
	}
	if err != nil {
		j.status.Error = fmt.Sprintf("recovery: %v", err)
		s.transition(j, causeFinishErr, nil)
		return
	}
	j.prog = prog
	s.transition(j, causeRecover, nil)
}
