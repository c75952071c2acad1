package main

import (
	"fmt"
	"strings"

	"cumulon/internal/cloud"
)

// scale sizes every workload. The default scale is what BENCHMARK.json and
// the ledger measure; smoke shrinks everything so the whole harness runs in
// the unit test.
type scale struct {
	name string
	// setups is how many times a run sets up from scratch (setup_s is the
	// median). minOps is the floor below which the harness refuses to
	// report ops_per_s: a run whose window ended short of it keeps measuring,
	// up to maxExtraWindows more windows, before it gives up.
	setups, minOps int

	// search_gnmf: GNMF over a sparse V of about searchM × searchN.
	searchM, searchN, searchR, searchIters, searchTile int
	searchDensity, searchDeadline                      float64

	// dense_matmul: C = A * B, both denseN × denseN.
	denseN, denseTile int

	// gnmf_sparse.
	gnmfM, gnmfN, gnmfR, gnmfIters, gnmfTile int
	gnmfDensity                              float64

	// serve_mixed.
	serveClients                   int
	smallDim                       int // small virtual matmuls are about smallDim³
	bigM, bigN, bigR, bigIters     int // big virtual GNMF
	matM, matN, matR, matIters     int // small materialized GNMF
	matTile                        int
	rsvdM, rsvdN, rsvdK, rsvdPower int
}

var defaultScale = scale{
	name: "default", setups: 5, minOps: 10,
	searchM: 100000, searchN: 50000, searchR: 10, searchIters: 1, searchTile: 2048,
	searchDensity: 0.01, searchDeadline: 120,
	denseN: 1024, denseTile: 512,
	gnmfM: 4096, gnmfN: 3072, gnmfR: 32, gnmfIters: 2, gnmfTile: 256, gnmfDensity: 0.05,
	serveClients: 2, smallDim: 4096,
	bigM: 100000, bigN: 50000, bigR: 10, bigIters: 3,
	matM: 256, matN: 192, matR: 8, matIters: 2, matTile: 64,
	rsvdM: 20000, rsvdN: 10000, rsvdK: 64, rsvdPower: 1,
}

var smokeScale = scale{
	name: "smoke", setups: 1, minOps: 3,
	searchM: 6000, searchN: 4000, searchR: 4, searchIters: 1, searchTile: 2048,
	searchDensity: 0.01, searchDeadline: 3600,
	denseN: 96, denseTile: 32,
	gnmfM: 96, gnmfN: 64, gnmfR: 4, gnmfIters: 2, gnmfTile: 32, gnmfDensity: 0.2,
	serveClients: 2, smallDim: 512,
	bigM: 20000, bigN: 10000, bigR: 4, bigIters: 1,
	matM: 48, matN: 32, matR: 4, matIters: 2, matTile: 16,
	rsvdM: 4000, rsvdN: 2000, rsvdK: 16, rsvdPower: 1,
}

// The program texts below are what a user would put in a .cm file; the
// harness hands the layers source text, never an AST it built itself.

func matmulSource(m, k, n int) string {
	return fmt.Sprintf("input A %d %d\ninput B %d %d\nC = A * B\noutput C\n", m, k, k, n)
}

func gnmfSource(m, n, r, iters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "input V %d %d sparse\ninput W %d %d\ninput H %d %d\n", m, n, m, r, r, n)
	fmt.Fprintf(&b, "for i in 1:%d {\n", iters)
	b.WriteString("  H = H .* (W' * V) ./ ((W' * W) * H)\n")
	b.WriteString("  W = W .* (V * H') ./ (W * (H * H'))\n")
	b.WriteString("  checkpoint\n}\noutput W\noutput H\n")
	return b.String()
}

func rsvdSource(m, n, k, power int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "input A %d %d\ninput Omega %d %d\nB = A * Omega\ncheckpoint\n", m, n, n, k)
	fmt.Fprintf(&b, "for i in 1:%d {\n  B = A * (A' * B)\n  checkpoint\n}\noutput B\n", power)
	return b.String()
}

// m1Large is a cluster of the machine type every run here uses (cumulond's
// default); the two materialized workloads run on 4 nodes × 2 slots.
func m1Large(nodes, slots int) (cloud.Cluster, error) {
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		return cloud.Cluster{}, err
	}
	return cloud.NewCluster(mt, nodes, slots)
}
