// Package obs is the shared observability subsystem: span/event tracing
// over the engines' virtual clocks, a Chrome-trace exporter, a
// Prometheus-style metrics snapshot, a critical-path analyzer, and a
// predicted-vs-actual differ.
//
// Cumulon's optimizer story — benchmark, simulate, model, search — only
// closes its loop if the system can observe what an execution actually
// did. Package obs provides the observation layer both engines (exec,
// mapred), the simulator (sim) and the compute layer record into:
//
//   - A Recorder receives a hierarchy of spans (program → job → phase →
//     task, plus tile-op events) stamped with virtual-clock times and
//     typed attributes (flops, byte classes, node/slot placement, retry
//     counts, a per-category time breakdown).
//   - The default recorder is a no-op that adds zero allocations to the
//     hot path; engines guard all attribute construction behind
//     Recorder.Enabled so a disabled recorder costs one branch per task.
//   - Trace is the buffered in-memory implementation. It exports Chrome
//     trace-event JSON (chrome://tracing, Perfetto) with one track per
//     node×slot, snapshots into a metrics Registry, computes the
//     critical path of the recorded span DAG with per-category time
//     attribution, and diffs against a predicted trace job-by-job.
//
// Recording is deterministic: engines record only from their (single)
// scheduling goroutine during trace replay, so two runs of the same seed
// produce byte-identical exports regardless of the compute backend.
package obs

// SpanID identifies one recorded span. The zero value (NoSpan) means
// "no span": it is the parent of root spans and the result of recording
// against a disabled recorder.
type SpanID int64

// NoSpan is the null span id.
const NoSpan SpanID = 0

// Kind classifies a span in the program → job → phase → task hierarchy.
type Kind uint8

const (
	// KindProgram spans one whole plan execution (or prediction).
	KindProgram Kind = iota
	// KindJob spans one job, from its release to its last phase end.
	KindJob
	// KindPhase spans one barrier-separated task phase of a job.
	KindPhase
	// KindTask spans one executed task attempt chain.
	KindTask
)

func (k Kind) String() string {
	switch k {
	case KindProgram:
		return "program"
	case KindJob:
		return "job"
	case KindPhase:
		return "phase"
	case KindTask:
		return "task"
	}
	return "?"
}

// Category classifies where virtual time goes. The critical-path
// analyzer reports one total per category; task spans carry a Breakdown
// indexed by Category.
type Category uint8

const (
	// CatCompute is floating-point work.
	CatCompute Category = iota
	// CatLocalRead is disk time reading node-local replicas.
	CatLocalRead
	// CatRackRead is network time reading rack-local replicas.
	CatRackRead
	// CatRemoteRead is network time reading cross-rack replicas
	// (including the configured cross-rack penalty).
	CatRemoteRead
	// CatWrite is disk+network time writing outputs and their replicas.
	CatWrite
	// CatStartup is fixed overhead: per-task process startup and per-job
	// launch time.
	CatStartup
	// CatQueue is time spent waiting: slot contention and any scheduling
	// gap the analyzer cannot attribute elsewhere.
	CatQueue
	// CatRecovery is time lost to failure handling: failed task attempts,
	// retry backoff and the startup of replacement attempts.
	CatRecovery
	// CatCheckpoint is time spent writing program-level checkpoints: the
	// durable manifest plus any live tiles not already on the DFS.
	CatCheckpoint
	// NumCategories sizes Breakdown arrays.
	NumCategories
)

func (c Category) String() string {
	switch c {
	case CatCompute:
		return "compute"
	case CatLocalRead:
		return "local read"
	case CatRackRead:
		return "rack read"
	case CatRemoteRead:
		return "remote read"
	case CatWrite:
		return "write"
	case CatStartup:
		return "startup"
	case CatQueue:
		return "queue"
	case CatRecovery:
		return "recovery"
	case CatCheckpoint:
		return "checkpoint"
	}
	return "?"
}

// Breakdown decomposes a span's duration into per-category seconds.
type Breakdown [NumCategories]float64

// Total returns the summed seconds across categories.
func (b Breakdown) Total() float64 {
	var t float64
	for _, v := range b {
		t += v
	}
	return t
}

// Scale returns the breakdown with every category multiplied by f.
func (b Breakdown) Scale(f float64) Breakdown {
	for i := range b {
		b[i] *= f
	}
	return b
}

// Add returns the element-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	for i := range b {
		b[i] += o[i]
	}
	return b
}

// Attrs are the typed attributes a span carries. All fields are
// optional; which ones are meaningful depends on the span kind. Attrs is
// a plain value so that recording against the no-op recorder never
// allocates.
type Attrs struct {
	// JobID identifies the job (job, phase and task spans). The differ
	// aligns predicted and actual job spans on this.
	JobID int
	// Phase is the phase index within the job (phase and task spans).
	Phase int
	// Index is the task index within the phase (task spans).
	Index int
	// Node and Slot locate where a task ran (task spans). Slot is the
	// engine's global slot index.
	Node, Slot int
	// Deps lists the job IDs this job depends on (job spans); the
	// critical-path analyzer follows these edges.
	Deps []int
	// Flops is the floating-point work of the span.
	Flops int64
	// Byte classes of the span's I/O, matching exec.TaskRecord.
	LocalReadBytes, RackReadBytes, RemoteReadBytes, CacheReadBytes, WriteBytes int64
	// Retries counts failed attempts that preceded the recorded one.
	Retries int
	// QueueSec is how long the task waited between its phase's release
	// and its first attempt (task spans).
	QueueSec float64
	// RecoverySec is virtual time the task lost to failed attempts and
	// retry backoff before its successful attempt began (task spans).
	RecoverySec float64
	// Breakdown attributes the span's duration to time categories; for
	// task spans the engine normalizes it to sum to the span duration.
	Breakdown Breakdown
}

// Recorder receives spans and events. Implementations must tolerate
// calls with NoSpan ids (they are ignored). Recording happens from one
// goroutine at a time per recorder in the engines, but implementations
// are expected to be safe for concurrent use anyway (Trace is).
type Recorder interface {
	// Enabled reports whether the recorder wants attributes, task spans
	// and kernel events; hot paths guard their construction behind it.
	// The Cumulon engine sends job, phase and checkpoint spans and its
	// retry and crash events to any recorder but Nop, enabled or not.
	Enabled() bool
	// Start opens a span at virtual time start and returns its id.
	Start(kind Kind, name string, parent SpanID, start float64) SpanID
	// End closes the span at virtual time end. Re-ending a span moves
	// its end time (the engines use this when speculation rewrites a
	// task's finish).
	End(id SpanID, end float64)
	// SetAttrs attaches typed attributes to a span, replacing any
	// previous attributes.
	SetAttrs(id SpanID, a Attrs)
	// Event records an instantaneous event under parent.
	Event(parent SpanID, name string, ts float64)
}

// nop is the zero-cost disabled recorder.
type nop struct{}

// Nop returns the no-op Recorder: every method is an empty shell and
// Enabled is false, so instrumented code skips all attribute work.
func Nop() Recorder { return nop{} }

func (nop) Enabled() bool                              { return false }
func (nop) Start(Kind, string, SpanID, float64) SpanID { return NoSpan }
func (nop) End(SpanID, float64)                        {}
func (nop) SetAttrs(SpanID, Attrs)                     {}
func (nop) Event(SpanID, string, float64)              {}

// OrNop returns r, or the no-op recorder when r is nil, so config
// structs can leave the field unset.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop()
	}
	return r
}
