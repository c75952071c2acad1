// Package chaos defines deterministic fault schedules for the engines: a
// Schedule describes when datanodes crash (in virtual time), how often
// task attempts fault, and how often reads fail transiently; an Injector
// answers the engines' "does this attempt fail?" questions as a pure
// function of the schedule seed and the event's coordinates.
//
// Determinism is the point. Cloud failures are random in production but
// must be reproducible in a simulation: the same schedule against the
// same program yields the same crashes, the same retries and the same
// recovery traffic regardless of the compute backend or the host's
// GOMAXPROCS, so fault-recovery runs can be diffed byte-for-byte against
// each other and asserted bit-identical to a fault-free oracle. Fault
// decisions therefore use a seeded hash of the task coordinates, never a
// shared random stream whose consumption order could vary.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// NodeCrash kills one datanode at a virtual time. The engine fires the
// crash at the first scheduling decision at or after At: the DFS marks
// the node dead and re-replicates its blocks, and the node's task slots
// are lost for the rest of the run.
type NodeCrash struct {
	Node int     `json:"node"`
	At   float64 `json:"at_sec"`
}

// TargetFault pins faults to one task: the first Attempts attempts of
// the matching task fail. A negative Job, Phase or Index matches any
// value, so tests can fail, say, every task's first attempt. Targeted
// faults exist for tests and debugging; production-shaped chaos uses the
// probabilistic knobs.
type TargetFault struct {
	Job, Phase, Index int
	Attempts          int
}

func (t TargetFault) matches(job, phase, index int) bool {
	return (t.Job < 0 || t.Job == job) &&
		(t.Phase < 0 || t.Phase == phase) &&
		(t.Index < 0 || t.Index == index)
}

// Schedule is one deterministic fault scenario. The zero value (and a
// nil *Schedule) injects nothing.
type Schedule struct {
	// Seed drives every probabilistic decision. Two schedules with the
	// same knobs but different seeds fault different tasks.
	Seed int64
	// Crashes lists datanode kills by virtual time.
	Crashes []NodeCrash
	// TaskFaultProb is the per-attempt probability that a task attempt
	// fails before doing any work (lost container, preempted JVM).
	TaskFaultProb float64
	// ReadFaultProb is the per-attempt probability that a task attempt
	// dies on a transient read error of its first input (flaky datanode
	// connection). Decided from the input path, so the same logical read
	// faults identically however the attempt was scheduled.
	ReadFaultProb float64
	// Targets pins additional deterministic faults to specific tasks.
	Targets []TargetFault
	// KillProgramAt, when positive, kills the whole program at this
	// virtual time: no job or checkpoint write that would end later
	// counts, and the engine returns a ProgramKilled error. Paired with
	// program-level checkpointing, this is the crash half of crash-resume
	// testing — a later run resumes from the last checkpoint written by
	// then and must finish bit-identically to an uninterrupted run.
	KillProgramAt float64
}

// Validate checks the schedule's knobs are sane.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for _, c := range s.Crashes {
		if c.Node < 0 {
			return fmt.Errorf("chaos: negative crash node %d", c.Node)
		}
		if c.At < 0 {
			return fmt.Errorf("chaos: negative crash time %g", c.At)
		}
	}
	if s.TaskFaultProb < 0 || s.TaskFaultProb > 1 {
		return fmt.Errorf("chaos: taskfault %g outside [0,1]", s.TaskFaultProb)
	}
	if s.ReadFaultProb < 0 || s.ReadFaultProb > 1 {
		return fmt.Errorf("chaos: readfault %g outside [0,1]", s.ReadFaultProb)
	}
	if s.KillProgramAt < 0 {
		return fmt.Errorf("chaos: negative kill-program time %g", s.KillProgramAt)
	}
	return nil
}

// String renders the schedule in the Parse syntax.
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	for _, c := range s.Crashes {
		parts = append(parts, fmt.Sprintf("kill=%d@%s", c.Node, strconv.FormatFloat(c.At, 'g', -1, 64)))
	}
	if s.TaskFaultProb > 0 {
		parts = append(parts, fmt.Sprintf("taskfault=%s", strconv.FormatFloat(s.TaskFaultProb, 'g', -1, 64)))
	}
	if s.ReadFaultProb > 0 {
		parts = append(parts, fmt.Sprintf("readfault=%s", strconv.FormatFloat(s.ReadFaultProb, 'g', -1, 64)))
	}
	if s.KillProgramAt > 0 {
		parts = append(parts, fmt.Sprintf("kill-program@%s", strconv.FormatFloat(s.KillProgramAt, 'g', -1, 64)))
	}
	return strings.Join(parts, ",")
}

// Parse reads a schedule from the CLI flag syntax: comma-separated
// key=value pairs,
//
//	seed=7,kill=3@120,kill=5@300.5,taskfault=0.02,readfault=0.01
//
// where kill=NODE@SECONDS may repeat. An empty spec is a nil schedule.
func Parse(spec string) (*Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	s := &Schedule{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if atStr, ok := strings.CutPrefix(part, "kill-program@"); ok {
			at, err := strconv.ParseFloat(atStr, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad kill-program time %q: %w", atStr, err)
			}
			s.KillProgramAt = at
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: %q is not key=value", part)
		}
		switch key {
		case "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q: %w", val, err)
			}
			s.Seed = v
		case "kill":
			nodeStr, atStr, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("chaos: kill wants NODE@SECONDS, got %q", val)
			}
			node, err := strconv.Atoi(nodeStr)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad kill node %q: %w", nodeStr, err)
			}
			at, err := strconv.ParseFloat(atStr, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad kill time %q: %w", atStr, err)
			}
			s.Crashes = append(s.Crashes, NodeCrash{Node: node, At: at})
		case "taskfault":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad taskfault %q: %w", val, err)
			}
			s.TaskFaultProb = v
		case "readfault":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad readfault %q: %w", val, err)
			}
			s.ReadFaultProb = v
		default:
			return nil, fmt.Errorf("chaos: unknown key %q (want seed, kill, taskfault, readfault or kill-program@T)", key)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Injector answers fault questions for one run of one engine. Crash
// delivery is stateful (each crash fires once, in time order); the
// fault predicates are pure. All methods are nil-safe: a nil Injector
// injects nothing, so engines can hold one unconditionally.
type Injector struct {
	s       *Schedule
	crashes []NodeCrash // sorted by At, ties by declaration order
	next    int
}

// NewInjector builds an injector for the schedule; nil in, nil out.
func NewInjector(s *Schedule) *Injector {
	if s == nil {
		return nil
	}
	crashes := append([]NodeCrash(nil), s.Crashes...)
	sort.SliceStable(crashes, func(i, j int) bool { return crashes[i].At < crashes[j].At })
	return &Injector{s: s, crashes: crashes}
}

// NextCrash pops the earliest undelivered crash due at or before the
// virtual time now. Callers loop until ok is false to drain coincident
// crashes.
func (in *Injector) NextCrash(now float64) (NodeCrash, bool) {
	if in == nil || in.next >= len(in.crashes) || in.crashes[in.next].At > now {
		return NodeCrash{}, false
	}
	c := in.crashes[in.next]
	in.next++
	return c, true
}

// Delivered returns how many crashes have been delivered so far.
// Checkpoint manifests record it so restore can realign delivery state.
func (in *Injector) Delivered() int {
	if in == nil {
		return 0
	}
	return in.next
}

// SkipDelivered marks the first n crashes as already delivered (restore
// path: those crashes fired before the checkpoint and their effects are
// encoded in the manifest's dead-node and placement state).
func (in *Injector) SkipDelivered(n int) {
	if in == nil {
		return
	}
	if n > len(in.crashes) {
		n = len(in.crashes)
	}
	if n > in.next {
		in.next = n
	}
}

// KillProgramAt returns the schedule's program-kill time (0 = none).
func (in *Injector) KillProgramAt() float64 {
	if in == nil {
		return 0
	}
	return in.s.KillProgramAt
}

// CrashedBefore counts the crashes scheduled strictly before the virtual
// time t, independent of delivery state (the coarse MapReduce baseline
// uses it to shrink the usable cluster for later jobs).
func (in *Injector) CrashedBefore(t float64) int {
	if in == nil {
		return 0
	}
	n := 0
	for _, c := range in.crashes {
		if c.At < t {
			n++
		}
	}
	return n
}

// TaskFault reports whether the given task attempt fails before doing
// any work. Pure in (seed, job, phase, index, attempt).
func (in *Injector) TaskFault(job, phase, index, attempt int) bool {
	if in == nil {
		return false
	}
	for _, t := range in.s.Targets {
		if t.matches(job, phase, index) && attempt < t.Attempts {
			return true
		}
	}
	if in.s.TaskFaultProb <= 0 {
		return false
	}
	h := hashMix(uint64(in.s.Seed), kindTask, mix(job), mix(phase), mix(index), mix(attempt))
	return unit(finalize(h)) < in.s.TaskFaultProb
}

// ReadFault reports whether the given task attempt dies on a transient
// read error of the input at path. Pure in (seed, path, job, phase,
// index, attempt); an empty path (a task that reads nothing) never
// faults.
func (in *Injector) ReadFault(path string, job, phase, index, attempt int) bool {
	if in == nil || in.s.ReadFaultProb <= 0 || path == "" {
		return false
	}
	h := hashMix(uint64(in.s.Seed), kindRead, mix(job), mix(phase), mix(index), mix(attempt))
	for i := 0; i < len(path); i++ {
		h = step(h, uint64(path[i]))
	}
	return unit(finalize(h)) < in.s.ReadFaultProb
}

const (
	kindTask uint64 = 0x7461736b // "task"
	kindRead uint64 = 0x72656164 // "read"

	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// mix folds a signed int into a hashable word without collapsing small
// negatives onto small positives.
func mix(v int) uint64 { return uint64(int64(v)) * 0x9e3779b97f4a7c15 }

func step(h, b uint64) uint64 { return (h ^ b) * fnvPrime }

// hashMix FNV-folds the parts byte by byte; callers finalize() the
// running hash once all input (including any variable-length tail) is in.
func hashMix(parts ...uint64) uint64 {
	h := fnvOffset
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			h = step(h, (p>>(8*i))&0xff)
		}
	}
	return h
}

// finalize avalanches the hash (splitmix64 tail) so every input bit
// reaches every output bit — FNV alone diffuses only upward, which would
// leave the high bits (the ones a probability threshold looks at)
// insensitive to late input bytes.
func finalize(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }
