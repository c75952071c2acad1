package exec

import (
	"reflect"
	"sort"
	"testing"

	"cumulon/internal/lang"
	"cumulon/internal/plan"
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
// or any other difference, fails. It is a model error (ROADMAP item 2): the
// fix moves predictions, so it is not made here.
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
			tasks := 0
			for _, j := range pl.Jobs {
				profiles[j.ID] = plan.Profile(j)
				for _, ph := range profiles[j.ID] {
					tasks += len(ph.Class)
				}
			}
			if len(m.Tasks) != tasks {
				t.Fatalf("the engine ran %d tasks, the profiles hold %d", len(m.Tasks), tasks)
			}
			shared := map[string]bool{}
			for _, r := range m.Tasks {
				j := pl.JobByID(r.JobID)
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
		})
	}
}

// taskTapes lists the tapes the task at index of the job's phase evaluates
// and their regions, from the engine's task order (i outermost, k
// innermost). Aggregation tasks read their partials, which no tape shares,
// and the epilogue.
func taskTapes(j *plan.Job, phase, index int) []tapeUse {
	iSpans := plan.PartitionAxis(j.ITiles(), j.Split.CI)
	jSpans := plan.PartitionAxis(j.JTiles(), j.Split.CJ)
	kSpans := plan.PartitionAxis(j.KTiles(), j.Split.CK)
	var ks plan.Span
	if phase == 0 {
		ks = kSpans[index%len(kSpans)]
		index /= len(kSpans)
	}
	is, js := iSpans[index/len(jSpans)], jSpans[index%len(jSpans)]
	if j.Kind == plan.MapKind {
		return []tapeUse{{"map", j.Prog.Refs, is, js}}
	}
	var uses []tapeUse
	if phase == 0 {
		uses = append(uses, tapeUse{"left", j.LProg.Refs, is, ks}, tapeUse{"right", j.RProg.Refs, ks, js})
		if mask, ok := j.Leaves[j.MaskLeaf]; ok {
			uses = append(uses, tapeUse{"mask", []plan.LeafRef{mask}, is, js})
		}
	}
	if j.EpiProg != nil && (phase == 1 || len(kSpans) == 1) {
		uses = append(uses, tapeUse{"epilogue", j.EpiProg.Refs, is, js})
	}
	return uses
}
