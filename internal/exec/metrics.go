package exec

import (
	"encoding/csv"
	"io"
	"strconv"
)

// TaskRecord captures one executed task: its work profile, placement and
// timing. It is the one ledger of a task's bytes: the DFS classifies each
// read, and the engine adds the split here. The model-fitting pipeline (package model) consumes these as its
// benchmark observations, exactly as the paper calibrates task-time models
// from instrumented runs.
type TaskRecord struct {
	JobID, Phase, Index int
	Node                int
	Slot                int // global slot index the task ran on
	Flops               int64
	LocalReadBytes      int64
	RackReadBytes       int64 // non-local reads served within the rack
	RemoteReadBytes     int64 // cross-rack reads
	CacheReadBytes      int64 // reads served from the node memory cache
	WriteBytes          int64
	StartSec            float64 // start of the successful attempt
	Seconds             float64
	Retries             int
	// RecoverySec is virtual time lost to failed attempts before StartSec:
	// their startup costs plus exponential retry backoff.
	RecoverySec float64
}

// JobRecord captures one executed job.
type JobRecord struct {
	JobID    int
	Name     string
	Kind     string
	Phases   int
	Tasks    int
	StartSec float64
	EndSec   float64
}

// Seconds returns the job's wall-clock (virtual) duration.
func (j JobRecord) Seconds() float64 { return j.EndSec - j.StartSec }

// RunMetrics aggregates a full plan execution.
type RunMetrics struct {
	TotalSeconds    float64
	Jobs            []JobRecord
	Tasks           []TaskRecord
	TotalFlops      int64
	TotalReadBytes  int64
	TotalWriteBytes int64
	// SpeculativeTasks counts straggler backups that won their race
	// (only nonzero with Config.Speculation).
	SpeculativeTasks int
	// TotalCacheBytes counts reads served from node memory caches.
	TotalCacheBytes int64
	// TotalRetries counts failed task attempts across the run.
	TotalRetries int
	// RecoverySeconds sums the virtual time tasks lost to failed attempts
	// and retry backoff.
	RecoverySeconds float64
	// NodeCrashes counts datanode crashes delivered by the fault schedule.
	NodeCrashes int
	// RereplicatedBytes counts bytes the DFS copied to restore replication
	// after crashes.
	RereplicatedBytes int64
	// BlocksLost counts blocks whose every replica died (they stay
	// unavailable; tasks reading them fail).
	BlocksLost int
	// Checkpoints counts program-level checkpoints written this run
	// (only nonzero with Config.CheckpointEvery).
	Checkpoints int
	// CheckpointBytes counts tile bytes captured by those checkpoints.
	CheckpointBytes int64
	// CheckpointSeconds sums the virtual time the run spent writing
	// checkpoints (the CatCheckpoint critical-path category).
	CheckpointSeconds float64
	// ResumedFromStmt is the boundary statement the run resumed from
	// (0 when the run started from scratch).
	ResumedFromStmt int
	// ResumeSkippedJobs counts jobs skipped because a checkpoint already
	// covered them.
	ResumeSkippedJobs int
}

// TimelineCSV writes one row per task — placement, timing, flops, the
// byte classes of its I/O and its retry count — so runs can be plotted
// as Gantt charts and locality/retry behavior inspected per task.
func (m *RunMetrics) TimelineCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"job", "phase", "task", "node", "slot", "start_s", "end_s", "flops",
		"local_bytes", "rack_bytes", "remote_bytes", "cache_bytes", "write_bytes", "retries", "recovery_s"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, t := range m.Tasks {
		rec := []string{
			strconv.Itoa(t.JobID), strconv.Itoa(t.Phase), strconv.Itoa(t.Index),
			strconv.Itoa(t.Node), strconv.Itoa(t.Slot),
			strconv.FormatFloat(t.StartSec, 'f', 3, 64),
			strconv.FormatFloat(t.StartSec+t.Seconds, 'f', 3, 64),
			strconv.FormatInt(t.Flops, 10),
			strconv.FormatInt(t.LocalReadBytes, 10),
			strconv.FormatInt(t.RackReadBytes, 10),
			strconv.FormatInt(t.RemoteReadBytes, 10),
			strconv.FormatInt(t.CacheReadBytes, 10),
			strconv.FormatInt(t.WriteBytes, 10),
			strconv.Itoa(t.Retries),
			strconv.FormatFloat(t.RecoverySec, 'f', 3, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func (m *RunMetrics) addTask(t TaskRecord) {
	m.Tasks = append(m.Tasks, t)
	m.TotalFlops += t.Flops
	m.TotalReadBytes += t.LocalReadBytes + t.RackReadBytes + t.RemoteReadBytes
	m.TotalWriteBytes += t.WriteBytes
	m.TotalCacheBytes += t.CacheReadBytes
	m.TotalRetries += t.Retries
	m.RecoverySeconds += t.RecoverySec
}
