package linalg_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/lang"
	"cumulon/internal/linalg"
	"cumulon/internal/plan"
)

// TestEngineRunsIdenticalUnderEveryKernel is the kernels' contract seen
// from where users stand: whole materialized programs — a dense multiply
// in 64³ tile products and a sparse GNMF whose skinny products clear the
// blocked cutoff — produce byte-identical outputs and the same virtual
// clock whichever micro-kernel the process selected.
func TestEngineRunsIdenticalUnderEveryKernel(t *testing.T) {
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := cloud.NewCluster(mt, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name, src string
		cfg       plan.Config
	}{
		{"matmul", "input A 160 128\ninput B 128 136\nC = A * B\noutput C\n", plan.Config{TileSize: 64}},
		{"gnmf", `input V 256 192 sparse
input W 256 16
input H 16 192
for i in 1:2 {
  H = H .* (W' * V) ./ ((W' * W) * H)
  W = W .* (V * H') ./ (W * (H * H'))
}
output W
output H
`, plan.Config{TileSize: 128, Densities: map[string]float64{"V": 0.3}}},
	} {
		t.Run(w.name, func(t *testing.T) {
			prog, err := lang.Parse(w.src)
			if err != nil {
				t.Fatal(err)
			}
			inputs := core.RandomInputs(prog, w.cfg, 9)
			runs := map[string]string{}
			linalg.ForEachActiveKernel(t, func(t *testing.T, kernel string) {
				res, err := core.NewSession(9).Run(prog, w.cfg, core.ExecOptions{Cluster: cluster, Inputs: inputs})
				if err != nil {
					t.Fatal(err)
				}
				runs[kernel] = fingerprint(res)
			})
			var first string
			for kernel, fp := range runs {
				if first == "" {
					first = fp
				}
				if fp != first {
					t.Fatalf("%s differs from another kernel's run:\n%v", kernel, runs)
				}
			}
		})
	}
}

// fingerprint digests every output's raw float64 payload and the run's
// virtual makespan.
func fingerprint(res *core.ExecResult) string {
	names := make([]string, 0, len(res.Outputs))
	for name := range res.Outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var buf [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		for _, v := range res.Outputs[name].Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(res.Metrics.TotalSeconds))
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}
