package exec

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cumulon/internal/lang"
	"cumulon/internal/plan"
	"cumulon/internal/testutil"
)

// tapeUse is one tape of a task and the logical tile region it is
// evaluated over.
type tapeUse struct {
	tape       string
	refs       []plan.LeafRef
	rows, cols plan.Span
}

// doubleCharged returns the bytes of the tiles that more than one access of
// the task's tapes reads, once per extra access, and a label per shared
// matrix naming the tapes that share it.
func doubleCharged(uses []tapeUse) (int64, []string) {
	type tile struct {
		name   string
		ri, rj int
	}
	readers := map[tile][]string{}
	var bytes int64
	shared := map[string]bool{}
	for _, u := range uses {
		for _, ref := range u.refs {
			for ti := u.rows.Lo; ti < u.rows.Hi; ti++ {
				for tj := u.cols.Lo; tj < u.cols.Hi; tj++ {
					k := tile{ref.Meta.Name, ti, tj}
					if ref.Transposed {
						k.ri, k.rj = tj, ti
					}
					if prev := readers[k]; len(prev) > 0 {
						bytes += ref.Meta.EstTileBytes(k.ri, k.rj)
						shared[prev[0]+"+"+u.tape+":"+k.name] = true
					}
					readers[k] = append(readers[k], u.tape)
				}
			}
		}
	}
	labels := make([]string, 0, len(shared))
	for l := range shared {
		labels = append(labels, l)
	}
	return bytes, labels
}

// TestProfileMatchesEngineAccounting holds the simulator's task profile
// (plan.Profile, what sim prices) and the engine's accounting of a virtual
// run to one another exactly: for every task, matched by (job, phase,
// index), flops, bytes written and bytes read are equal integers, not
// close ones. Sparse shapes are picked so that density x tile extent is
// whole on every tile, ragged ones included; Profile's closed form and the
// engine's per-tile estimates round alike there.
//
// One difference is real and is asserted, not tolerated: a task reads a
// tile once however many of its tapes reference it, while Profile charges
// each tape's region separately. wantShared lists, per plan, every place
// this happens — the Gram products W'*W and H*H', whose two prologues read
// the same matrix wherever a task's i-span meets its j-span, and an
// epilogue that reads a prologue's matrix. There Profile must exceed the
// engine by exactly the doubly charged tiles; a shared tile anywhere else,
// or any other difference, fails. It is a model error (ROADMAP item 7(ii)):
// the fix moves predictions, so it is not made here. It also lowers the task
// footprint (plan.TaskFootprint), which is Profile's bytes: where a case
// shares nothing, each job's largest task holds exactly its footprint, and
// elsewhere no task holds more.
func TestProfileMatchesEngineAccounting(t *testing.T) {
	const gnmf = `
input W 26 4
input H 4 22
H = H .* (W' * V) ./ ((W' * W) * H)
W = W .* (V * H') ./ (W * (H * H'))
output W
output H
`
	for _, c := range []struct {
		name, src  string
		densities  map[string]float64
		wantShared []string
	}{
		{
			name:       "gnmf-dense",
			src:        "input V 26 22\n" + gnmf,
			wantShared: []string{"left+right:H#1", "left+right:W"},
		},
		{
			name:       "gnmf-sparse",
			src:        "input V 26 22 sparse\n" + gnmf,
			densities:  map[string]float64{"V": 0.25},
			wantShared: []string{"left+right:H#1", "left+right:W"},
		},
		{
			name: "ksplit-epilogue",
			src:  "input A 8 64\ninput B 64 8\ninput D 8 8\nC = D .* (A * B) + D\noutput C\n",
		},
		{
			name:       "self-epilogue",
			src:        "input A 26 26\ninput B 26 26\nC = A .* (A * B)\noutput C\n",
			wantShared: []string{"left+epilogue:A"},
		},
		{
			name:      "masked",
			src:       "input V 26 22 sparse\ninput W 26 6\ninput H 6 22\nR = mask(V, (W + W) * (2 * H))\noutput R\n",
			densities: map[string]float64{"V": 0.25},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog, err := lang.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := plan.Compile(prog, plan.Config{TileSize: 4, Densities: c.densities})
			if err != nil {
				t.Fatal(err)
			}
			pl.AutoSplit(8)
			e, err := New(Config{Cluster: testCluster(t, 4, 2), Seed: 7, NoiseFactor: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range pl.Inputs {
				if err := e.LoadVirtual(in); err != nil {
					t.Fatal(err)
				}
			}
			m, err := e.Run(pl)
			if err != nil {
				t.Fatal(err)
			}
			profiles := map[int][]plan.PhaseProfile{}
			jobs := map[int]*plan.Job{}
			tasks := 0
			for _, j := range pl.Jobs {
				profiles[j.ID], jobs[j.ID] = plan.Profile(j), j
				for _, ph := range profiles[j.ID] {
					tasks += len(ph.Class)
				}
			}
			if len(m.Tasks) != tasks {
				t.Fatalf("the engine ran %d tasks, the profiles hold %d", len(m.Tasks), tasks)
			}
			shared := map[string]bool{}
			for _, r := range m.Tasks {
				j := jobs[r.JobID]
				ph := profiles[r.JobID][r.Phase]
				want := ph.Work[ph.Class[r.Index]]
				double, labels := doubleCharged(taskTapes(j, r.Phase, r.Index))
				for _, l := range labels {
					shared[l] = true
				}
				read := r.LocalReadBytes + r.RackReadBytes + r.RemoteReadBytes + r.CacheReadBytes
				if r.Flops != want.Flops || r.WriteBytes != want.WriteBytes || read != want.ReadBytes-double {
					t.Errorf("%s phase %d task %d: engine flops %d, wrote %d, read %d; profile %+v with %d B charged twice",
						j, r.Phase, r.Index, r.Flops, r.WriteBytes, read, want, double)
				}
			}
			var got []string
			for l := range shared {
				got = append(got, l)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, c.wantShared) {
				t.Errorf("tapes sharing a matrix within a task: %v, want %v", got, c.wantShared)
			}
			checkFootprint(t, pl, m, len(c.wantShared) == 0)
		})
	}
}

// checkFootprint asserts that no task of the run read and wrote more bytes
// than its job's plan.TaskFootprint and, when exact, that each job's largest
// task holds exactly that many.
func checkFootprint(t *testing.T, pl *plan.Plan, m *RunMetrics, exact bool) {
	t.Helper()
	held := map[int]int64{}
	for _, r := range m.Tasks {
		b := r.LocalReadBytes + r.RackReadBytes + r.RemoteReadBytes + r.CacheReadBytes + r.WriteBytes
		held[r.JobID] = max(held[r.JobID], b)
	}
	for _, j := range pl.Jobs {
		fp := plan.TaskFootprint(plan.Profile(j))
		if got := held[j.ID]; got > fp || exact && got != fp {
			t.Errorf("%s: largest task read and wrote %d B, footprint %d B", j, got, fp)
		}
	}
}

// taskTapes lists the tapes the task at index of the job's phase evaluates
// and their regions, from plan.Phases. Aggregation tasks read their
// partials, which no tape shares, and the epilogue.
func taskTapes(j *plan.Job, phase, index int) []tapeUse {
	ph := &j.Phases()[phase]
	is, js, ks := ph.Task(index)
	var uses []tapeUse
	switch ph.Kind {
	case plan.MapPhase:
		uses = append(uses, tapeUse{"map", j.Prog.Refs, is, js})
	case plan.MulPhase, plan.MaskedPhase:
		uses = append(uses, tapeUse{"left", j.LProg.Refs, is, ks}, tapeUse{"right", j.RProg.Refs, ks, js})
		if ph.Kind == plan.MaskedPhase {
			uses = append(uses, tapeUse{"mask", []plan.LeafRef{j.Leaves[j.MaskLeaf]}, is, js})
		}
	}
	if epi := ph.Epilogue(j); epi != nil {
		uses = append(uses, tapeUse{"epilogue", epi.Refs, is, js})
	}
	return uses
}

// TestEngineRunsThePlansPhases: over seeded random programs — ragged tile
// edges, transposed leaves, products and chains, a sparse input, a masked
// product — at random tile sizes and random splits, k-splits included, the
// virtual engine's task records in (job, phase, index) order are plan.Phases'
// tasks position for position: one record per task, each writing exactly
// the tiles of its spans of the matrix the phase says it writes. Profile
// lists as many tasks per phase.
func TestEngineRunsThePlansPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	kSplits, masked := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		prog := testutil.NewGen(seed).Program("phases", 3, 2)
		prog.Inputs = append(prog.Inputs, lang.Input{Name: "S", Rows: 13, Cols: 8, Sparse: true})
		for i, src := range []string{"mask(S, M13x5 * M5x8)", "S' * M13x13 + M8x13", "(S .* S) * M8x5"} {
			x, err := lang.ParseExpr(src)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("S%d", i)
			prog.Stmts = append(prog.Stmts, lang.Assign{Name: name, Expr: x})
			prog.Outputs = append(prog.Outputs, name)
		}
		pl, err := plan.Compile(prog, plan.Config{TileSize: 2 + rng.Intn(5), Densities: map[string]float64{"S": 0.3}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, j := range pl.Jobs {
			j.Split = plan.Split{CI: 1 + rng.Intn(j.ITiles()), CJ: 1 + rng.Intn(j.JTiles()), CK: 1}
			if j.Kind == plan.MulKind && j.MaskLeaf == "" {
				j.Split.CK = 1 + rng.Intn(j.KTiles())
			}
		}
		e := newTestEngine(t, 3, 2, false)
		for _, in := range pl.Inputs {
			if err := e.LoadVirtual(in); err != nil {
				t.Fatal(err)
			}
		}
		m, err := e.Run(pl)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		recs := slices.Clone(m.Tasks)
		slices.SortFunc(recs, func(a, b TaskRecord) int {
			return cmp.Or(cmp.Compare(a.JobID, b.JobID), cmp.Compare(a.Phase, b.Phase), cmp.Compare(a.Index, b.Index))
		})
		for _, j := range pl.Jobs {
			phases, profile := j.Phases(), plan.Profile(j)
			if len(profile) != len(phases) {
				t.Fatalf("seed %d %s: %d phases, Profile has %d", seed, j, len(phases), len(profile))
			}
			for p := range phases {
				ph := &phases[p]
				if n := len(profile[p].Class); n != ph.Tasks() {
					t.Fatalf("seed %d %s phase %d: %d tasks, Profile lists %d", seed, j, p, ph.Tasks(), n)
				}
				for i := 0; i < ph.Tasks(); i++ {
					is, js, _ := ph.Task(i)
					out := ph.Out(j, i)
					var want int64
					for ti := is.Lo; ti < is.Hi; ti++ {
						for tj := js.Lo; tj < js.Hi; tj++ {
							want += out.EstTileBytes(ti, tj)
						}
					}
					if len(recs) == 0 || recs[0].JobID != j.ID || recs[0].Phase != p || recs[0].Index != i || recs[0].WriteBytes != want {
						t.Fatalf("seed %d %s phase %d task %d (%v x %v of %s, %d B): engine ran %+v", seed, j, p, i, is, js, out.Name, want, recs[:min(1, len(recs))])
					}
					recs = recs[1:]
				}
				if ph.Partials != nil {
					kSplits++
				}
				if ph.Kind == plan.MaskedPhase {
					masked++
				}
			}
		}
		if len(recs) != 0 {
			t.Fatalf("seed %d: the engine ran %d tasks no phase has: %+v", seed, len(recs), recs[0])
		}
	}
	if kSplits < 20 || masked < 20 {
		t.Fatalf("weak coverage: %d k-split phases, %d masked", kSplits, masked)
	}
}
