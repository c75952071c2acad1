package dfs

import (
	"fmt"
	"reflect"
	"testing"
)

// skewedFS builds a cluster where one node wrote everything locally.
func skewedFS(t *testing.T, nodes int) *FS {
	t.Helper()
	fs := New(Config{Nodes: nodes, Replication: 1, Seed: 1})
	for i := 0; i < 40; i++ {
		if err := fs.WriteVirtual(fmt.Sprintf("/s/%d", i), 1000, 0); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func imbalance(usage []int64) float64 {
	var max, total int64
	n := 0
	for _, u := range usage {
		if u > max {
			max = u
		}
		total += u
		n++
	}
	if total == 0 {
		return 0
	}
	return float64(max) / (float64(total) / float64(n))
}

func TestNodeUsage(t *testing.T) {
	fs := skewedFS(t, 4)
	usage := fs.NodeUsage()
	if usage[0] != 40000 {
		t.Fatalf("writer node usage: %v", usage)
	}
	if usage[1]+usage[2]+usage[3] != 0 {
		t.Fatalf("other nodes should be empty: %v", usage)
	}
}

func TestBalanceEvensLoad(t *testing.T) {
	fs := skewedFS(t, 4)
	before := imbalance(fs.NodeUsage())
	moved := fs.Balance(0.1)
	after := imbalance(fs.NodeUsage())
	if moved == 0 {
		t.Fatal("balance moved nothing on a fully skewed cluster")
	}
	if after >= before {
		t.Fatalf("imbalance did not improve: %.2f -> %.2f", before, after)
	}
	if after > 1.2 {
		t.Fatalf("imbalance still %.2f after balancing", after)
	}
	// All data still readable.
	for i := 0; i < 40; i++ {
		if _, err := fs.ReadAccount(fmt.Sprintf("/s/%d", i), 2); err != nil {
			t.Fatalf("file %d unreadable after balance: %v", i, err)
		}
	}
	// Moves were accounted as replication traffic.
	if fs.Stats(-1).ReplicationBytes == 0 {
		t.Fatal("balance traffic not accounted")
	}
}

func TestBalanceIdempotent(t *testing.T) {
	fs := skewedFS(t, 4)
	fs.Balance(0.1)
	if moved := fs.Balance(0.1); moved != 0 {
		t.Fatalf("second balance moved %d bytes", moved)
	}
}

func TestDecommissionKeepsDataAvailable(t *testing.T) {
	// Replication 1: KillNode would lose data, Decommission must not.
	fs := New(Config{Nodes: 3, Replication: 1, Seed: 2})
	for i := 0; i < 20; i++ {
		if err := fs.WriteVirtual(fmt.Sprintf("/d/%d", i), 500, i%3); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Decommission(1); err != nil {
		t.Fatal(err)
	}
	if fs.NodeAlive(1) {
		t.Fatal("node still alive after decommission")
	}
	for i := 0; i < 20; i++ {
		if _, err := fs.ReadAccount(fmt.Sprintf("/d/%d", i), 0); err != nil {
			t.Fatalf("file %d lost after decommission: %v", i, err)
		}
	}
	if usage := fs.NodeUsage(); usage[1] != 0 {
		t.Fatalf("decommissioned node still holds %d bytes", usage[1])
	}
}

func TestDecommissionErrors(t *testing.T) {
	fs := New(Config{Nodes: 2, Replication: 1, Seed: 1})
	if err := fs.Decommission(7); err == nil {
		t.Fatal("want error for unknown node")
	}
	if err := fs.Decommission(0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Decommission(0); err == nil {
		t.Fatal("want error for already-dead node")
	}
	if err := fs.Decommission(1); err == nil {
		t.Fatal("want error for last live node")
	}
}

func TestDecommissionFullyReplicatedBlocks(t *testing.T) {
	// With replication == nodes, every node holds every block: the
	// decommissioned node's replicas can simply be dropped.
	fs := New(Config{Nodes: 3, Replication: 3, Seed: 3})
	if err := fs.WriteVirtual("/x", 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Decommission(2); err != nil {
		t.Fatal(err)
	}
	nodes, err := fs.ReplicaNodes("/x")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("replicas after decommission: %v", nodes)
	}
}

// Decommission picks each replica's new home from a running usage tally, so
// the order it visits files in decides the outcome: two file systems built
// the same way must end up with the same placement.
func TestDecommissionDeterministic(t *testing.T) {
	build := func() *FS {
		fs := New(Config{Nodes: 6, Replication: 2, BlockSize: 64, Seed: 3})
		for i := 0; i < 60; i++ {
			if err := fs.WriteVirtual(fmt.Sprintf("/f%02d", i), int64(10+i%7*30), i%6); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Decommission(2); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	want := build()
	for round := 0; round < 5; round++ {
		got := build()
		for _, p := range want.List("") {
			w, _ := want.BlockReplicas(p)
			g, _ := got.BlockReplicas(p)
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("round %d: %s placed on %v, first build had %v", round, p, g, w)
			}
		}
		if !reflect.DeepEqual(got.NodeUsage(), want.NodeUsage()) {
			t.Fatalf("round %d: usage %v, first build had %v", round, got.NodeUsage(), want.NodeUsage())
		}
	}
}
