package dfs

import (
	"bytes"
	"errors"
	"testing"
)

// TestPeekReturnsContentWithoutAccounting: Peek is the compute layer's
// unclassified read — it must return the full content (across blocks).
func TestPeekReturnsContentWithoutAccounting(t *testing.T) {
	fs := New(Config{Nodes: 4, Replication: 2, BlockSize: 8, Seed: 1})
	data := []byte("spans multiple dfs blocks for sure")
	if err := fs.Write("/a", data, 0); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Peek("/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("peek mismatch: %q", got)
	}
}

func TestPeekErrors(t *testing.T) {
	fs := New(Config{Nodes: 3, Replication: 1, Seed: 1})
	if _, err := fs.Peek("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("peek of missing file: %v", err)
	}
	if err := fs.WriteVirtual("/v", 1000, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Peek("/v"); !errors.Is(err, ErrVirtual) {
		t.Fatalf("peek of virtual file: %v", err)
	}
	if err := fs.Write("/a", []byte("x"), 2); err != nil {
		t.Fatal(err)
	}
	nodes, err := replicaNodes(fs, "/a")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		fs.KillNode(n)
	}
	if _, err := fs.Peek("/a"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("peek with all replicas dead: %v", err)
	}
}
