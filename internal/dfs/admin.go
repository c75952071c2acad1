package dfs

import "fmt"

// This file holds the administrative operations of the file system: usage
// reporting, replica rebalancing after skewed ingest, and graceful
// datanode decommissioning — the HDFS operator toolkit a long-lived
// cluster depends on.

// NodeUsage reports the stored bytes (all replicas) per node.
func (fs *FS) NodeUsage() []int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.nodeUsageLocked()
}

func (fs *FS) nodeUsageLocked() []int64 {
	usage := make([]int64, fs.cfg.Nodes)
	for _, f := range fs.files {
		for _, b := range f.blocks {
			for _, r := range b.replicas {
				usage[r] += b.size
			}
		}
	}
	return usage
}

// Balance moves block replicas from overloaded to underloaded live nodes
// until every node's stored bytes are within `slack` (e.g. 0.1 = 10%) of
// the mean, or no further move helps. Moves are network transfers and are
// accounted as replication traffic. It returns the bytes moved.
func (fs *FS) Balance(slack float64) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if slack < 0 {
		slack = 0
	}
	usage := fs.nodeUsageLocked()
	live := fs.live
	if len(live) < 2 {
		return 0
	}
	var total int64
	for _, n := range live {
		total += usage[n]
	}
	mean := float64(total) / float64(len(live))
	upper := mean * (1 + slack)

	var moved int64
	// Iterate files deterministically.
	for _, p := range fs.sortedPaths("") {
		blocks := fs.files[p].blocks
		for i := range blocks {
			b := &blocks[i]
			// Find a replica on an overloaded node and a live underloaded
			// node that does not already hold the block.
			for ri, r := range b.replicas {
				if fs.dead[r] || float64(usage[r]) <= upper {
					continue
				}
				dst := -1
				for _, n := range live {
					// Fill destinations only up to the mean so moves always
					// shrink the spread.
					if float64(usage[n])+float64(b.size) > mean {
						continue
					}
					has := false
					for _, rr := range b.replicas {
						if rr == n {
							has = true
							break
						}
					}
					if !has && (dst < 0 || usage[n] < usage[dst]) {
						dst = n
					}
				}
				if dst < 0 {
					continue
				}
				b.replicas[ri] = dst
				usage[r] -= b.size
				usage[dst] += b.size
				moved += b.size
				fs.stats[dst].ReplicationBytes += b.size
				fs.total.ReplicationBytes += b.size
				break
			}
		}
	}
	return moved
}

// Decommission gracefully retires a datanode: every replica it holds is
// first copied to another live node (accounted as replication traffic),
// then the node is marked dead. Unlike KillNode, no block ever drops
// below its replica count — safe even at replication factor 1. Files are
// processed in sorted path order: each target is the least-loaded node of a
// running tally, so the outcome depends on the order.
func (fs *FS) Decommission(node int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if node < 0 || node >= fs.cfg.Nodes {
		return fmt.Errorf("dfs: no such node %d", node)
	}
	if fs.dead[node] {
		return fmt.Errorf("dfs: node %d is already dead", node)
	}
	targets := make([]int, 0, fs.cfg.Nodes)
	for _, n := range fs.live {
		if n != node {
			targets = append(targets, n)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("dfs: cannot decommission the last live node")
	}
	usage := fs.nodeUsageLocked()
	for _, p := range fs.sortedPaths("") {
		blocks := fs.files[p].blocks
		for i := range blocks {
			b := &blocks[i]
			for ri, r := range b.replicas {
				if r != node {
					continue
				}
				// Least-loaded target not already holding the block.
				dst := -1
				for _, n := range targets {
					has := false
					for _, rr := range b.replicas {
						if rr == n {
							has = true
							break
						}
					}
					if !has && (dst < 0 || usage[n] < usage[dst]) {
						dst = n
					}
				}
				if dst < 0 {
					// Every other node already has the block: dropping this
					// replica still leaves the block fully available.
					b.replicas = append(b.replicas[:ri], b.replicas[ri+1:]...)
					break
				}
				b.replicas[ri] = dst
				usage[dst] += b.size
				fs.stats[dst].ReplicationBytes += b.size
				fs.total.ReplicationBytes += b.size
				break
			}
		}
	}
	fs.markDead(node)
	return nil
}
