package server

import (
	"fmt"
	"strings"
	"testing"

	"cumulon/internal/ckpt"
	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/lang"
	"cumulon/internal/plan"
)

// BenchmarkMaterializedGNMFJob is the run of a materialized job cumulond's
// load mix submits, from the request on: a 2-iteration GNMF of a 256×192
// sparse V (density 0.2, rank 8, tile 64) on 2 nodes, checkpointed at every
// iteration into an in-memory store. The plan is compiled once, as the plan
// cache serves it; each iteration normalizes the request, maps it to engine
// options and executes a clone, its inputs drawn straight into the store.
func BenchmarkMaterializedGNMFJob(b *testing.B) {
	var src strings.Builder
	fmt.Fprintf(&src, "input V 256 192 sparse\ninput W 256 8\ninput H 8 192\nfor i in 1:2 {\n")
	src.WriteString("  H = H .* (W' * V) ./ ((W' * W) * H)\n  W = W .* (V * H') ./ (W * (H * H'))\n  checkpoint\n}\noutput W\noutput H\n")
	site := Config{}.WithDefaults()
	req := SubmitRequest{Tenant: "mat", Program: src.String(), Tile: 64, Density: 0.2, Nodes: 2, Materialize: true, Seed: 7, CheckpointEvery: 1}
	if err := req.Normalize(site); err != nil {
		b.Fatal(err)
	}
	prog, err := lang.Parse(req.Program)
	if err != nil {
		b.Fatal(err)
	}
	tmpl, err := plan.Compile(prog, plan.ConfigFor(prog, req.Tile, req.Density))
	if err != nil {
		b.Fatal(err)
	}
	mt, err := cloud.TypeByName(site.Machine)
	if err != nil {
		b.Fatal(err)
	}
	sess := core.NewSession(site.Seed)
	b.ReportAllocs()
	for range b.N {
		r := req
		if err := r.Normalize(site); err != nil {
			b.Fatal(err)
		}
		cluster, err := cloud.NewCluster(mt, r.Nodes, r.Slots)
		if err != nil {
			b.Fatal(err)
		}
		pl := tmpl.Clone()
		pl.AutoSplit(cluster.TotalSlots())
		opts, err := r.ExecOptions(cluster)
		if err != nil {
			b.Fatal(err)
		}
		opts.CheckpointStore, opts.Resume = ckpt.NewMemStore(), true
		res, err := sess.ExecutePlan(pl, cluster, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outputs) != 2 {
			b.Fatalf("%d outputs, want W and H", len(res.Outputs))
		}
	}
}
