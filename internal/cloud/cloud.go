// Package cloud models the Infrastructure-as-a-Service layer Cumulon
// provisions against: a catalog of machine types with compute, disk and
// network characteristics and hourly prices, plus the billing rules of
// 2013-era cloud providers (whole instance-hours).
//
// The catalog mirrors the public 2013 Amazon EC2 generation in *relative*
// terms — compute measured in ECUs, standard vs. high-CPU families, a
// roughly 10x price range — because Cumulon's provisioning decisions depend
// only on the relative speed/price structure of the offering, not on the
// absolute numbers of any particular datacenter.
package cloud

import (
	"fmt"
	"math"
)

// flopsPerECU converts EC2 "compute units" into an effective floating
// point rate for a JVM-era dataflow engine. The absolute value only sets
// the unit of virtual time; all comparisons are ratio-driven.
const flopsPerECU = 2.0e8

// JobStartupSec is the fixed overhead of every Cumulon job (job setup,
// scheduling round trips), which the engine charges and the simulator prices.
const JobStartupSec = 6.0

// DefaultReplication is the DFS replication factor (HDFS's 3).
const DefaultReplication = 3

// MachineType describes one purchasable instance type.
type MachineType struct {
	Name         string
	ECU          float64 // total compute units (EC2-style)
	Cores        int     // virtual cores; bounds useful CPU parallelism
	MemoryGB     float64
	DiskMBps     float64 // aggregate local-disk bandwidth, MB/s
	NetMBps      float64 // aggregate network bandwidth, MB/s
	PricePerHour float64 // dollars per instance-hour
	StartupSec   float64 // per-task scheduling + process startup overhead
}

// FlopsPerSec returns the machine's total effective flop rate.
func (m MachineType) FlopsPerSec() float64 { return m.ECU * flopsPerECU }

// TaskSeconds returns the virtual wall-clock duration of one task running
// on this machine type when the node is configured with `slots` concurrent
// task slots, given the task's work profile: floating point operations,
// bytes read from local disk, and bytes moved over the network (remote
// reads plus writes, which stream replicas over the network).
//
// Resource sharing follows the standard contention model: CPU is shared
// only once slots exceed cores, while disk and network bandwidth are
// always divided among the node's slots. This is the mechanism that makes
// "slots per node" a real optimization knob (paper: configuration
// settings): CPU-bound jobs want slots ≈ cores or more, I/O-bound jobs
// want fewer slots.
func (m MachineType) TaskSeconds(slots int, flops, localBytes, netBytes int64) float64 {
	startup, cpu, disk, net := m.TaskBreakdown(slots, flops, localBytes, netBytes)
	return startup + cpu + disk + net
}

// DiskNet folds a task's bytes into the two traffic features TaskSeconds
// takes: local reads and writes load the local disk; rack-local reads,
// remote reads weighted by the cross-rack penalty, and the repl−1 replica
// streams of every written byte load the network. The engine's durations
// and their breakdown, the model's observations and the simulator's
// predictions all fold a task's bytes here.
func DiskNet(local, rack, remote, write int64, penalty float64, repl int64) (disk, net int64) {
	return local + write, rack + int64(float64(remote)*penalty) + write*(repl-1)
}

// TaskBreakdown returns the additive components of TaskSeconds — fixed
// startup, CPU time, local-disk time and network time — so observability
// and the critical-path analyzer can attribute where a task's virtual
// seconds went. TaskSeconds is exactly their sum.
func (m MachineType) TaskBreakdown(slots int, flops, localBytes, netBytes int64) (startup, cpu, disk, net float64) {
	if slots <= 0 {
		panic("cloud: slots must be positive")
	}
	cpuRate := m.FlopsPerSec() / float64(max(slots, m.Cores)) * float64(min(slots, m.Cores)) / float64(slots)
	// cpuRate simplifies to: total/cores per slot when slots <= cores,
	// total/slots per slot when slots > cores.
	diskRate := m.DiskMBps * 1e6 / float64(slots)
	netRate := m.NetMBps * 1e6 / float64(slots)
	startup = m.StartupSec
	if flops > 0 {
		cpu = float64(flops) / cpuRate
	}
	if localBytes > 0 {
		disk = float64(localBytes) / diskRate
	}
	if netBytes > 0 {
		net = float64(netBytes) / netRate
	}
	return startup, cpu, disk, net
}

// Catalog returns the machine-type offering used throughout the
// experiments, in ascending price order.
func Catalog() []MachineType {
	return []MachineType{
		{Name: "m1.small", ECU: 1, Cores: 1, MemoryGB: 1.7, DiskMBps: 60, NetMBps: 40, PricePerHour: 0.060, StartupSec: 3.0},
		{Name: "m1.medium", ECU: 2, Cores: 1, MemoryGB: 3.75, DiskMBps: 80, NetMBps: 60, PricePerHour: 0.120, StartupSec: 2.5},
		{Name: "c1.medium", ECU: 5, Cores: 2, MemoryGB: 1.7, DiskMBps: 80, NetMBps: 60, PricePerHour: 0.145, StartupSec: 2.0},
		{Name: "m1.large", ECU: 4, Cores: 2, MemoryGB: 7.5, DiskMBps: 100, NetMBps: 80, PricePerHour: 0.240, StartupSec: 2.0},
		{Name: "m2.xlarge", ECU: 6.5, Cores: 2, MemoryGB: 17.1, DiskMBps: 100, NetMBps: 80, PricePerHour: 0.410, StartupSec: 2.0},
		{Name: "m1.xlarge", ECU: 8, Cores: 4, MemoryGB: 15, DiskMBps: 120, NetMBps: 100, PricePerHour: 0.480, StartupSec: 2.0},
		{Name: "c1.xlarge", ECU: 20, Cores: 8, MemoryGB: 7, DiskMBps: 160, NetMBps: 100, PricePerHour: 0.580, StartupSec: 2.0},
		{Name: "m2.2xlarge", ECU: 13, Cores: 4, MemoryGB: 34.2, DiskMBps: 120, NetMBps: 100, PricePerHour: 0.820, StartupSec: 2.0},
	}
}

// TypeByName looks a machine type up in the catalog.
func TypeByName(name string) (MachineType, error) {
	for _, m := range Catalog() {
		if m.Name == name {
			return m, nil
		}
	}
	return MachineType{}, fmt.Errorf("cloud: unknown machine type %q", name)
}

// Cost returns the dollar cost of running n instances of type m for
// seconds of wall-clock time, billed in whole instance-hours (the 2013
// cloud billing granularity the paper optimizes under). Zero-duration
// clusters cost nothing; any positive duration bills at least one hour.
func Cost(m MachineType, n int, seconds float64) float64 {
	if n <= 0 || seconds <= 0 {
		return 0
	}
	hours := math.Ceil(seconds / 3600)
	return float64(n) * m.PricePerHour * hours
}

// CostLinear returns the idealized per-second cost (no hour rounding).
// The optimizer reports both: staircase cost is what you pay, linear cost
// exposes the underlying tradeoff curve.
func CostLinear(m MachineType, n int, seconds float64) float64 {
	if n <= 0 || seconds <= 0 {
		return 0
	}
	return float64(n) * m.PricePerHour * seconds / 3600
}

// Cluster is a provisioned set of identical instances plus the slot
// configuration chosen for them.
type Cluster struct {
	Type  MachineType
	Nodes int
	Slots int // task slots per node
}

// NewCluster validates and constructs a cluster description.
func NewCluster(mt MachineType, nodes, slots int) (Cluster, error) {
	if nodes <= 0 {
		return Cluster{}, fmt.Errorf("cloud: cluster needs at least one node, got %d", nodes)
	}
	if slots <= 0 {
		return Cluster{}, fmt.Errorf("cloud: cluster needs at least one slot per node, got %d", slots)
	}
	return Cluster{Type: mt, Nodes: nodes, Slots: slots}, nil
}

// TotalSlots returns the cluster-wide task slot count.
func (c Cluster) TotalSlots() int { return c.Nodes * c.Slots }

// String renders the deployment triple, e.g. "16 x c1.medium (2 slots)".
func (c Cluster) String() string {
	return fmt.Sprintf("%d x %s (%d slots)", c.Nodes, c.Type.Name, c.Slots)
}
