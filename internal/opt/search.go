package opt

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cumulon/internal/obs"
	"cumulon/internal/sim"
)

// PruneReason classifies why the search rejected a candidate deployment.
type PruneReason uint8

const (
	// PruneNone marks a candidate that was not rejected (the winner, or a
	// candidate of an enumeration with no objective).
	PruneNone PruneReason = iota
	// PruneDominated: some other candidate is no worse in both time and
	// cost and strictly better in one (exact ties keep the
	// earliest-evaluated candidate).
	PruneDominated
	// PruneOverDeadline: predicted time exceeds the deadline.
	PruneOverDeadline
	// PruneOverBudget: billed cost exceeds the budget.
	PruneOverBudget
	// PruneConfidence: the point estimate met the deadline but the
	// simulated confidence quantile did not.
	PruneConfidence
	// PruneOutranked: feasible and Pareto-optimal, but worse than the
	// winner on the optimized objective (a legitimate alternative
	// tradeoff, not an error).
	PruneOutranked
	// NumPruneReasons sizes per-reason count arrays.
	NumPruneReasons
)

func (r PruneReason) String() string {
	switch r {
	case PruneNone:
		return "none"
	case PruneDominated:
		return "pareto-dominated-by"
	case PruneOverDeadline:
		return "over-deadline"
	case PruneOverBudget:
		return "over-budget"
	case PruneConfidence:
		return "confidence-rejected"
	case PruneOutranked:
		return "outranked-by-winner"
	}
	return "?"
}

// SearchCounter names one scalar search counter. Candidate and prune
// counts are derived from the recorded candidates themselves; these
// counters cover events with no candidate record of their own.
type SearchCounter uint8

const (
	// CounterSearches counts constrained searches (not bare enumerations).
	CounterSearches SearchCounter = iota
	// CounterModelCacheHits counts calibrated-model cache hits.
	CounterModelCacheHits
	// CounterModelCacheMisses counts calibrations performed.
	CounterModelCacheMisses
	// CounterSimTrials counts Monte Carlo completion-time trials.
	CounterSimTrials
	// CounterCSEChains counts matrix-product chains the cross-statement
	// CSE pass eliminated across all plan compilations of the search.
	CounterCSEChains
	// CounterCSEFlops counts the flops those eliminations saved.
	CounterCSEFlops
	// CounterMemFallbacks counts, over the search's candidates, the jobs no
	// split of which fits a slot's memory share: each runs on its
	// smallest-footprint split (sim.(*Predictor).BestSplit).
	CounterMemFallbacks
	// NumSearchCounters sizes counter arrays.
	NumSearchCounters
)

func (c SearchCounter) String() string {
	switch c {
	case CounterSearches:
		return "searches"
	case CounterModelCacheHits:
		return "model_cache_hits"
	case CounterModelCacheMisses:
		return "model_cache_misses"
	case CounterSimTrials:
		return "sim_trials"
	case CounterCSEChains:
		return "cse_chains"
	case CounterCSEFlops:
		return "cse_flops_saved"
	case CounterMemFallbacks:
		return "mem_fallback_jobs"
	}
	return "?"
}

// Candidate is one evaluated grid point of the deployment search, with
// everything the search learned about it. Seq is its 0-based evaluation
// order within one search; Prune and Winner calls refer back to it.
type Candidate struct {
	Seq        int
	Deployment Deployment
	// Terms is the model-term decomposition of the predicted time.
	Terms sim.Terms
	// Pruned is why the candidate lost (PruneNone for the winner, and for
	// every candidate of an unconstrained enumeration).
	Pruned PruneReason
	// DominatedBy is the Seq of a dominating candidate when Pruned is
	// PruneDominated, -1 otherwise.
	DominatedBy int
	// QuantileSec is the simulated confidence-quantile completion time,
	// recorded only for candidates the confident search actually
	// simulated (0 otherwise).
	QuantileSec float64
	// Winner marks the search's answer (also set, with Met false, on the
	// closest candidate of an unsatisfiable search).
	Winner bool
}

// SearchRecord is one recorded search: its objective, its candidates in
// evaluation order, and its outcome.
type SearchRecord struct {
	// Objective is "min-cost-deadline", "min-time-budget", or "enumerate"
	// for candidates recorded outside a constrained search.
	Objective  string
	Constraint float64
	Confidence float64
	// Met reports whether the constraint was satisfiable.
	Met bool
	// WinnerSeq is the Seq of the winning candidate, -1 if none was
	// declared.
	WinnerSeq  int
	Candidates []Candidate
}

// SearchTrace receives candidate-level telemetry from the optimizer and is
// safe for concurrent use: it accumulates every search of an optimizer
// session (counters are cumulative across searches) and exports JSON/CSV
// traces, EXPLAIN reports, Pareto frontier renderings and a metrics
// snapshot. A nil *SearchTrace records nothing at zero cost; hot paths guard
// Candidate construction behind Enabled.
type SearchTrace struct {
	mu       sync.Mutex
	searches []*SearchRecord
	counters [NumSearchCounters]int64
}

// NewSearchTrace returns an empty search trace.
func NewSearchTrace() *SearchTrace { return &SearchTrace{} }

// Enabled reports whether t records: false only for a nil trace.
func (t *SearchTrace) Enabled() bool { return t != nil }

// Begin opens a "min-cost-deadline" (constraint in seconds) or
// "min-time-budget" (dollars) search; confidence is 0 for point estimates.
func (t *SearchTrace) Begin(objective string, constraint, confidence float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.searches = append(t.searches, &SearchRecord{
		Objective: objective, Constraint: constraint, Confidence: confidence,
		WinnerSeq: -1,
	})
}

// current returns the open search record, creating an implicit
// "enumerate" record for candidates arriving outside Begin/Winner (the
// bench harness sweeps Enumerate directly).
func (t *SearchTrace) current() *SearchRecord {
	if len(t.searches) == 0 {
		t.searches = append(t.searches, &SearchRecord{Objective: "enumerate", WinnerSeq: -1})
	}
	return t.searches[len(t.searches)-1]
}

// Candidate appends one evaluated grid point to the current search.
func (t *SearchTrace) Candidate(c Candidate) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.current()
	if c.DominatedBy == 0 {
		c.DominatedBy = -1 // zero value means "none"; Seq 0 is set via Prune
	}
	s.Candidates = append(s.Candidates, c)
}

// Prune marks candidate seq of the current search as rejected.
// dominatedBy is the Seq of a dominating candidate (PruneDominated) or -1;
// quantileSec is the simulated quantile (PruneConfidence) or 0.
func (t *SearchTrace) Prune(seq int, reason PruneReason, dominatedBy int, quantileSec float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.current()
	if seq < 0 || seq >= len(s.Candidates) {
		return
	}
	c := &s.Candidates[seq]
	c.Pruned = reason
	c.DominatedBy = dominatedBy
	if quantileSec > 0 {
		c.QuantileSec = quantileSec
	}
}

// Winner marks candidate seq of the current search as its answer.
func (t *SearchTrace) Winner(seq int, met bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.current()
	if seq < 0 || seq >= len(s.Candidates) {
		return
	}
	s.WinnerSeq = seq
	s.Met = met
	s.Candidates[seq].Winner = true
}

// Count bumps a scalar search counter by n.
func (t *SearchTrace) Count(c SearchCounter, n int64) {
	if t == nil || c >= NumSearchCounters {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters[c] += n
}

// CounterValue reads one scalar counter.
func (t *SearchTrace) CounterValue(c SearchCounter) int64 {
	if t == nil || c >= NumSearchCounters {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[c]
}

// Searches returns copies of the recorded searches in recording order.
func (t *SearchTrace) Searches() []SearchRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SearchRecord, len(t.searches))
	for i, s := range t.searches {
		out[i] = *s
		out[i].Candidates = append([]Candidate(nil), s.Candidates...)
	}
	return out
}

// Last returns a copy of the most recent search, or false when nothing
// was recorded.
func (t *SearchTrace) Last() (SearchRecord, bool) {
	all := t.Searches()
	if len(all) == 0 {
		return SearchRecord{}, false
	}
	return all[len(all)-1], true
}

// prunedCounts tallies candidates by prune reason across all searches.
func prunedCounts(searches []SearchRecord) [NumPruneReasons]int64 {
	var out [NumPruneReasons]int64
	for _, s := range searches {
		for _, c := range s.Candidates {
			out[c.Pruned]++
		}
	}
	return out
}

// --- JSON / CSV export ---------------------------------------------------

// traceJSON is the exported search-trace schema. It is self-contained:
// Replay re-derives every search's winner from it alone.
type traceJSON struct {
	Searches []searchJSON     `json:"searches"`
	Counters map[string]int64 `json:"counters"`
}

type searchJSON struct {
	Objective  string     `json:"objective"`
	Constraint float64    `json:"constraint,omitempty"`
	Confidence float64    `json:"confidence,omitempty"`
	Met        bool       `json:"met"`
	Winner     int        `json:"winner"`
	Candidates []candJSON `json:"candidates"`
}

type candJSON struct {
	Seq         int       `json:"seq"`
	Machine     string    `json:"machine"`
	Nodes       int       `json:"nodes"`
	Slots       int       `json:"slots"`
	Tile        int       `json:"tile"`
	PredSeconds float64   `json:"pred_seconds"`
	Cost        float64   `json:"cost"`
	CostLinear  float64   `json:"cost_linear"`
	Terms       sim.Terms `json:"terms"`
	Pruned      string    `json:"pruned,omitempty"`
	DominatedBy int       `json:"dominated_by"`
	QuantileSec float64   `json:"quantile_seconds,omitempty"`
	Winner      bool      `json:"winner,omitempty"`
}

func (t *SearchTrace) toJSON() traceJSON {
	searches := t.Searches()
	out := traceJSON{Counters: map[string]int64{}}
	for c := SearchCounter(0); c < NumSearchCounters; c++ {
		out.Counters[c.String()] = t.CounterValue(c)
	}
	pruned := prunedCounts(searches)
	for r := PruneReason(1); r < NumPruneReasons; r++ {
		out.Counters["pruned_"+r.String()] = pruned[r]
	}
	for _, s := range searches {
		sj := searchJSON{
			Objective: s.Objective, Constraint: s.Constraint,
			Confidence: s.Confidence, Met: s.Met, Winner: s.WinnerSeq,
		}
		for _, c := range s.Candidates {
			d := c.Deployment
			cj := candJSON{
				Seq: c.Seq, Machine: d.Cluster.Type.Name,
				Nodes: d.Cluster.Nodes, Slots: d.Cluster.Slots, Tile: d.TileSize,
				PredSeconds: d.PredSeconds, Cost: d.Cost, CostLinear: d.CostLinear,
				Terms: c.Terms, DominatedBy: c.DominatedBy,
				QuantileSec: c.QuantileSec, Winner: c.Winner,
			}
			if c.Pruned != PruneNone {
				cj.Pruned = c.Pruned.String()
			}
			sj.Candidates = append(sj.Candidates, cj)
		}
		out.Searches = append(out.Searches, sj)
	}
	return out
}

// WriteJSON exports the full search trace as indented JSON. The output
// is deterministic for a deterministic search (map keys are sorted by
// encoding/json).
func (t *SearchTrace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.toJSON())
}

// WriteFile exports the search trace to the named file ("-" for stdout):
// CSV when the name ends in .csv, JSON otherwise.
func (t *SearchTrace) WriteFile(path string) error {
	write := t.WriteJSON
	if strings.HasSuffix(path, ".csv") {
		write = t.WriteCSV
	}
	return obs.WriteFile(path, write)
}

// WriteCSV exports the search trace as one flat CSV row per candidate.
func (t *SearchTrace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"search", "objective", "constraint", "confidence",
		"seq", "machine", "nodes", "slots", "tile",
		"pred_seconds", "cost", "cost_linear",
		"compute_sec", "local_sec", "rack_sec", "remote_sec", "startup_sec",
		"pruned", "dominated_by", "quantile_seconds", "winner",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for si, s := range t.Searches() {
		for _, c := range s.Candidates {
			d := c.Deployment
			row := []string{
				strconv.Itoa(si), s.Objective, f(s.Constraint), f(s.Confidence),
				strconv.Itoa(c.Seq), d.Cluster.Type.Name,
				strconv.Itoa(d.Cluster.Nodes), strconv.Itoa(d.Cluster.Slots), strconv.Itoa(d.TileSize),
				f(d.PredSeconds), f(d.Cost), f(d.CostLinear),
				f(c.Terms.ComputeSec), f(c.Terms.LocalSec), f(c.Terms.RackSec),
				f(c.Terms.RemoteSec), f(c.Terms.StartupSec),
				c.Pruned.String(), strconv.Itoa(c.DominatedBy), f(c.QuantileSec),
				strconv.FormatBool(c.Winner),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// --- Replay --------------------------------------------------------------

// ReplayedWinner is the outcome Replay re-derives for one search.
type ReplayedWinner struct {
	Objective string
	// Seq is the winning candidate's Seq, -1 when the search held no
	// candidates.
	Seq int
	Met bool
	// Deployment describes the winner, e.g. "16 x c1.medium (2 slots), tile 2048".
	Deployment string
	// RecordedSeq and RecordedMet are the outcome the trace itself
	// recorded, for cross-checking against the replay.
	RecordedSeq int
	RecordedMet bool
}

// Replay parses an exported JSON search trace and independently
// re-derives each search's winner from the recorded candidates by
// applying the optimizer's decision rule. A healthy trace replays to its
// own recorded winner; the determinism tests assert this, and assert
// that two same-seed searches export byte-identical traces.
func Replay(data []byte) ([]ReplayedWinner, error) {
	var tr traceJSON
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("opt: bad search trace: %w", err)
	}
	var out []ReplayedWinner
	for _, s := range tr.Searches {
		rw := ReplayedWinner{
			Objective: s.Objective, Seq: -1,
			RecordedSeq: s.Winner, RecordedMet: s.Met,
		}
		if len(s.Candidates) > 0 {
			rw.Seq, rw.Met = replayWinner(s)
			c := s.Candidates[rw.Seq]
			rw.Deployment = fmt.Sprintf("%d x %s (%d slots), tile %d", c.Nodes, c.Machine, c.Slots, c.Tile)
		}
		out = append(out, rw)
	}
	return out, nil
}

// replayWinner applies the search's decision rule to its candidates.
func replayWinner(s searchJSON) (seq int, met bool) {
	feasible := func(c candJSON) bool {
		switch s.Objective {
		case "min-cost-deadline":
			if c.PredSeconds > s.Constraint {
				return false
			}
			if s.Confidence > 0 && s.Confidence < 1 {
				// The confident search only examined candidates in cost
				// order until one passed; feasibility is a recorded
				// quantile meeting the deadline.
				return c.QuantileSec > 0 && c.QuantileSec <= s.Constraint
			}
			return true
		case "min-time-budget":
			return c.Cost <= s.Constraint
		default:
			return true
		}
	}
	better := func(a, b candJSON) bool {
		switch s.Objective {
		case "min-time-budget":
			return a.PredSeconds < b.PredSeconds ||
				(a.PredSeconds == b.PredSeconds && a.Cost < b.Cost)
		default:
			return a.Cost < b.Cost ||
				(a.Cost == b.Cost && a.PredSeconds < b.PredSeconds)
		}
	}
	// Fallback for unsatisfiable constraints: fastest (deadline) or
	// cheapest (budget).
	closest := func(a, b candJSON) bool {
		if s.Objective == "min-time-budget" {
			return a.Cost < b.Cost
		}
		return a.PredSeconds < b.PredSeconds
	}
	best, fallback := -1, -1
	for i, c := range s.Candidates {
		if fallback == -1 || closest(c, s.Candidates[fallback]) {
			fallback = i
		}
		if !feasible(c) {
			continue
		}
		if best == -1 || better(c, s.Candidates[best]) {
			best = i
		}
	}
	if best >= 0 {
		return s.Candidates[best].Seq, true
	}
	return s.Candidates[fallback].Seq, false
}

// rivalRank orders a search's non-winner candidates by how close they
// came to winning: feasible candidates first, by the objective.
func rivalRank(s SearchRecord) []int {
	infeasible := func(c Candidate) bool {
		return c.Pruned == PruneOverDeadline || c.Pruned == PruneOverBudget || c.Pruned == PruneConfidence
	}
	var order []int
	for i := range s.Candidates {
		if i != s.WinnerSeq {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := s.Candidates[order[a]], s.Candidates[order[b]]
		if ia, ib := infeasible(ca), infeasible(cb); ia != ib {
			return ib
		}
		da, db := ca.Deployment, cb.Deployment
		if s.Objective == "min-time-budget" {
			if da.PredSeconds != db.PredSeconds {
				return da.PredSeconds < db.PredSeconds
			}
			if da.Cost != db.Cost {
				return da.Cost < db.Cost
			}
		} else {
			if da.Cost != db.Cost {
				return da.Cost < db.Cost
			}
			if da.PredSeconds != db.PredSeconds {
				return da.PredSeconds < db.PredSeconds
			}
		}
		return order[a] < order[b]
	})
	return order
}
