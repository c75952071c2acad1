package cloud

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogSanity(t *testing.T) {
	cat := Catalog()
	if len(cat) < 4 {
		t.Fatalf("catalog too small: %d", len(cat))
	}
	seen := map[string]bool{}
	for i, m := range cat {
		if seen[m.Name] {
			t.Fatalf("duplicate machine type %s", m.Name)
		}
		seen[m.Name] = true
		if m.ECU <= 0 || m.Cores <= 0 || m.PricePerHour <= 0 || m.DiskMBps <= 0 || m.NetMBps <= 0 {
			t.Fatalf("machine %s has non-positive parameters: %+v", m.Name, m)
		}
		if i > 0 && cat[i].PricePerHour < cat[i-1].PricePerHour {
			t.Fatalf("catalog not sorted by price at %s", m.Name)
		}
	}
}

func TestTypeByName(t *testing.T) {
	m, err := TypeByName("c1.xlarge")
	if err != nil || m.Name != "c1.xlarge" {
		t.Fatalf("lookup failed: %v %v", m, err)
	}
	if _, err := TypeByName("quantum.huge"); err == nil {
		t.Fatal("expected error for unknown type")
	}
}

func TestTaskSecondsCPUContention(t *testing.T) {
	m, _ := TypeByName("m1.xlarge") // 4 cores
	flops := int64(1e9)
	t1 := m.TaskSeconds(1, flops, 0, 0)
	t4 := m.TaskSeconds(4, flops, 0, 0)
	t8 := m.TaskSeconds(8, flops, 0, 0)
	// Up to the core count, per-task CPU time is constant.
	if math.Abs(t1-t4) > 1e-9 {
		t.Fatalf("per-task CPU time should be flat up to cores: %v vs %v", t1, t4)
	}
	// Beyond the core count each task slows down ~proportionally.
	if t8 <= t4*1.5 {
		t.Fatalf("oversubscription should slow tasks: t4=%v t8=%v", t4, t8)
	}
}

func TestTaskSecondsIOContention(t *testing.T) {
	m, _ := TypeByName("m1.large")
	bytes := int64(100e6)
	t1 := m.TaskSeconds(1, 0, bytes, 0)
	t2 := m.TaskSeconds(2, 0, bytes, 0)
	// Disk bandwidth is always shared: doubling slots roughly doubles
	// per-task I/O time (minus the constant startup).
	io1, io2 := t1-m.StartupSec, t2-m.StartupSec
	if math.Abs(io2-2*io1) > 1e-9 {
		t.Fatalf("disk sharing: io1=%v io2=%v", io1, io2)
	}
}

func TestTaskSecondsMonotoneInWork(t *testing.T) {
	f := func(fl, lb, nb uint32) bool {
		m, _ := TypeByName("c1.medium")
		base := m.TaskSeconds(2, int64(fl), int64(lb), int64(nb))
		more := m.TaskSeconds(2, int64(fl)+1000, int64(lb)+1000, int64(nb)+1000)
		return more > base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTaskSecondsPanicsOnBadSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m, _ := TypeByName("m1.small")
	m.TaskSeconds(0, 1, 1, 1)
}

func TestCostStaircase(t *testing.T) {
	m, _ := TypeByName("m1.small")
	if got := Cost(m, 10, 0); got != 0 {
		t.Fatalf("zero time should be free: %v", got)
	}
	oneSec := Cost(m, 10, 1)
	oneHour := Cost(m, 10, 3600)
	if oneSec != oneHour {
		t.Fatalf("within the first hour cost must be flat: %v vs %v", oneSec, oneHour)
	}
	if got := Cost(m, 10, 3601); got != 2*oneHour {
		t.Fatalf("3601s should bill 2 hours: %v", got)
	}
}

func TestCostMonotone(t *testing.T) {
	m, _ := TypeByName("m1.large")
	f := func(a, b uint16) bool {
		lo, hi := float64(a), float64(a)+float64(b)
		return Cost(m, 3, hi) >= Cost(m, 3, lo) &&
			CostLinear(m, 3, hi) >= CostLinear(m, 3, lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCostLinearBelowStaircase(t *testing.T) {
	m, _ := TypeByName("c1.xlarge")
	for _, sec := range []float64{1, 100, 3600, 5000, 7200, 10000} {
		if CostLinear(m, 5, sec) > Cost(m, 5, sec)+1e-9 {
			t.Fatalf("linear cost exceeds staircase at %v s", sec)
		}
	}
}

func TestNewCluster(t *testing.T) {
	m, _ := TypeByName("m1.large")
	c, err := NewCluster(m, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalSlots() != 16 {
		t.Fatalf("total slots: %d", c.TotalSlots())
	}
	if _, err := NewCluster(m, 0, 2); err == nil {
		t.Fatal("want error for zero nodes")
	}
	if _, err := NewCluster(m, 2, 0); err == nil {
		t.Fatal("want error for zero slots")
	}
	if c.String() == "" {
		t.Fatal("empty cluster description")
	}
}

func TestFasterMachineFasterTasks(t *testing.T) {
	small, _ := TypeByName("m1.small")
	big, _ := TypeByName("c1.xlarge")
	flops, lb := int64(5e9), int64(200e6)
	if big.TaskSeconds(1, flops, lb, 0) >= small.TaskSeconds(1, flops, lb, 0) {
		t.Fatal("c1.xlarge should beat m1.small on the same task")
	}
}

// DiskNet: local reads and writes load the disk; rack-local reads load the
// network as they are, remote reads weighted by the cross-rack penalty, and
// each written byte adds one network stream per extra replica.
func TestDiskNet(t *testing.T) {
	cases := []struct {
		name                       string
		local, rack, remote, write int64
		penalty                    float64
		repl                       int64
		disk, net                  int64
	}{
		{"local reads only", 700, 0, 0, 0, 2, 3, 700, 0},
		{"rack reads ignore the penalty", 0, 100, 0, 0, 2, 3, 0, 100},
		{"remote reads carry the penalty", 0, 0, 100, 0, 1.5, 3, 0, 150},
		{"writes stream repl-1 copies", 0, 0, 0, 10, 1, 3, 10, 20},
		{"a single replica stays local", 0, 0, 0, 10, 1, 1, 10, 0},
		{"all at once", 5, 7, 11, 13, 2, 2, 18, 7 + 22 + 13},
	}
	for _, c := range cases {
		disk, net := DiskNet(c.local, c.rack, c.remote, c.write, c.penalty, c.repl)
		if disk != c.disk || net != c.net {
			t.Errorf("%s: DiskNet = (%d, %d), want (%d, %d)", c.name, disk, net, c.disk, c.net)
		}
	}
}
