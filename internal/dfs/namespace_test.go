package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The namespace tests drive paths in directories whose names share
// prefixes — a matrix, its k-split partials, a longer name, a nested
// directory, files with no directory at all — and prefixes of every
// alignment: whole directories, partial directory names, partial base
// names, the whole namespace, nothing.
var (
	nsDirs = []string{"/matrix/C/", "/matrix/C#1~p0/", "/matrix/C#1~p1/", "/matrix/CC/", "/matrix/C/sub/", "/w/", ""}
	nsBase = []string{"0_0", "0_1", "1_0", "10_0", "10_1", "C"}
	nsPref = []string{
		"/matrix/C/", "/matrix/C#1~p0/", "/matrix/CC/", "/matrix/C/sub/", "/matrix/", "/w/", "/",
		"/matrix/C", "/matrix/C#1~p", "/mat", "/matrix/C/s",
		"/matrix/C/1", "/matrix/CC/0_", "/matrix/C#1~p1/10_1", "1", "C",
		"",
		"/nope/", "/matrix/D", "/matrix/C/2", "x",
	}
	// nsMatrices names the matrices of nsDirs, and one with no directory.
	nsMatrices = []string{"C", "C#1~p0", "C#1~p1", "CC", "D"}
)

// DeletePrefix removes every file whose path starts with prefix: the
// namespace tests' prefix operation, and the oracle DeleteMatrix is held to.
// A directory whose name does is dropped whole, its files unvisited; a
// prefix that ends inside a base name is matched against the files of that
// one directory.
func (fs *FS) DeletePrefix(prefix string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	inside := dirOf(prefix)
	for dir, d := range fs.dirs {
		switch {
		case strings.HasPrefix(dir, prefix):
			delete(fs.dirs, dir)
		case dir == inside:
			for _, s := range d.under(prefix) {
				fs.drop(s)
			}
		}
	}
}

func nsPath(rng *rand.Rand) string {
	return nsDirs[rng.Intn(len(nsDirs))] + nsBase[rng.Intn(len(nsBase))]
}

// nsWrite stores path through one of the three write calls, by turn.
func nsWrite(fs *FS, path string, turn int) error {
	switch turn % 3 {
	case 0:
		return fs.Write(path, []byte(path), turn%fs.cfg.Nodes)
	case 1:
		return fs.WriteVirtual(path, int64(10+turn%90), -1)
	default:
		return fs.WritePlaced(path, nil, int64(10+turn%50), [][]int{{turn % fs.cfg.Nodes}})
	}
}

// nsDeclare declares a matrix of nsMatrices with a random grid — now and
// then one past maxGrid, which Declare refuses — and returns its directory
// and the grid's cell count.
func nsDeclare(fs *FS, rng *rand.Rand) (dir string, cells int) {
	name := nsMatrices[rng.Intn(len(nsMatrices))]
	rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
	if rng.Intn(8) == 0 {
		rows = maxGrid + 1
	}
	b := fs.Batch()
	b.Declare(name, rows, cols)
	b.Done()
	if rows > maxGrid {
		return "", 0
	}
	return MatrixRoot + name + "/", rows * cols
}

// TestNamespaceMatchesFlatOracle runs seeded random histories of writes,
// deletes, matrix declarations, matrix drops and prefix deletes against a
// flat map of paths kept here, and holds List, FileCount, what exists and the
// directories held to it after every step. A path names an ordinary file
// whatever its base name, so a declared directory's grid stays vacant: the
// directory holds the files written into it by path beside it, nothing
// lists, sizes or peeks a file it does not hold, it stays until DeleteMatrix
// or a prefix delete takes it, and declaring a directory that exists changes
// nothing.
func TestNamespaceMatchesFlatOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := New(Config{Nodes: 5, Replication: 2, BlockSize: 64, Seed: seed})
		oracle := map[string]bool{}
		// declared holds the grid size of each declared directory.
		declared := map[string]int{}
		write := func(p string, turn int) error { return nsWrite(fs, p, turn) }
		under := func(prefix string) []string {
			var out []string
			for p := range oracle {
				if strings.HasPrefix(p, prefix) {
					out = append(out, p)
				}
			}
			sort.Strings(out)
			return out
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(13); {
			case op == 12:
				held, cells := maps.Clone(fs.dirs), map[string]int{}
				for dir, d := range held {
					cells[dir] = len(d.cells)
				}
				if dir, n := nsDeclare(fs, rng); dir != "" && held[dir] == nil {
					declared[dir] = n
				}
				for dir, d := range held {
					if fs.dirs[dir] != d || len(d.cells) != cells[dir] {
						t.Fatalf("seed %d step %d: declaring changed the existing directory %q", seed, step, dir)
					}
				}
			case op < 5:
				p := nsPath(rng)
				err := write(p, step)
				if oracle[p] != errors.Is(err, ErrExists) || (!oracle[p] && err != nil) {
					t.Fatalf("seed %d step %d: write %q (present %v): %v", seed, step, p, oracle[p], err)
				}
				oracle[p] = true
			case op < 7:
				p := nsPath(rng)
				fs.Delete(p)
				delete(oracle, p)
				// A deleted path is free again.
				if rng.Intn(2) == 0 {
					if err := write(p, step); err != nil {
						t.Fatalf("seed %d step %d: re-create %q: %v", seed, step, p, err)
					}
					oracle[p] = true
				}
			default:
				// A matrix's drop takes its directory's files and nothing
				// else: not a longer name's, not a nested directory's.
				var gone []string
				var what string
				if op < 9 {
					name := nsMatrices[rng.Intn(len(nsMatrices))]
					what = fmt.Sprintf("DeleteMatrix(%q)", name)
					for _, p := range under(MatrixRoot + name + "/") {
						if dirOf(p) == MatrixRoot+name+"/" {
							gone = append(gone, p)
						}
					}
					fs.DeleteMatrix(name)
					delete(declared, MatrixRoot+name+"/")
				} else {
					prefix := nsPref[rng.Intn(len(nsPref))]
					what = fmt.Sprintf("DeletePrefix(%q)", prefix)
					gone = under(prefix)
					fs.DeletePrefix(prefix)
					for dir := range declared {
						if strings.HasPrefix(dir, prefix) {
							delete(declared, dir)
						}
					}
				}
				for _, p := range gone {
					delete(oracle, p)
				}
				if len(gone) > 0 {
					p := gone[rng.Intn(len(gone))]
					if err := write(p, step); err != nil {
						t.Fatalf("seed %d step %d: re-create %q after %s: %v", seed, step, p, what, err)
					}
					oracle[p] = true
				}
			}
			if got := len(fs.List("")); got != len(oracle) {
				t.Fatalf("seed %d step %d: FileCount %d, oracle holds %d", seed, step, got, len(oracle))
			}
			prefix := nsPref[rng.Intn(len(nsPref))]
			if got, want := fs.List(prefix), under(prefix); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: List(%q)\n got  %v\n want %v", seed, step, prefix, got, want)
			}
			if p := nsPath(rng); exists(fs, p) != oracle[p] {
				t.Fatalf("seed %d step %d: Exists(%q) = %v", seed, step, p, !oracle[p])
			} else if _, err := fs.Peek(p); !oracle[p] && !errors.Is(err, ErrNotFound) {
				t.Fatalf("seed %d step %d: Peek(%q) of no file: %v", seed, step, p, err)
			}
			if got := len(fs.sorted("")); got != len(oracle) {
				t.Fatalf("seed %d step %d: the sorted walk visits %d files, oracle holds %d", seed, step, got, len(oracle))
			}
			// No directory outlives its last file but a declared one, which
			// holds its whole grid and no tile.
			live := map[string]bool{}
			for p := range oracle {
				live[dirOf(p)] = true
			}
			for dir := range declared {
				live[dir] = true
			}
			if len(fs.dirs) != len(live) {
				t.Fatalf("seed %d step %d: %d directories held for %d with files or declared", seed, step, len(fs.dirs), len(live))
			}
			for dir, d := range fs.dirs {
				if n, ok := declared[dir]; ok && (d.nt != 0 || len(d.cells) != n) {
					t.Fatalf("seed %d step %d: declared directory %q holds %d tiles in %d cells, want none in %d", seed, step, dir, d.nt, len(d.cells), n)
				} else if !ok && (d.len() == 0 || d.cells != nil) {
					t.Fatalf("seed %d step %d: directory %q holds %d files and %d cells", seed, step, dir, d.len(), len(d.cells))
				}
			}
		}
		if got, want := fs.List(""), under(""); !slices.Equal(got, want) {
			t.Fatalf("seed %d: final List\n got  %v\n want %v", seed, got, want)
		}
	}
}

// A matrix name with a '/' would make the matrix's directory a parent of
// another's, which a drop by key would not take: it is a bug, and panics.
func TestDeleteMatrixRefusesNestedName(t *testing.T) {
	fs := New(Config{Nodes: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("DeleteMatrix(\"C/sub\") did not panic")
		}
	}()
	fs.DeleteMatrix("C/sub")
}

// namespaceKillScript interleaves writes with deletes of every kind, kills
// nodes in between, and dumps each RecoveryReport and every file's replica
// lists: re-replication walks the namespace in sorted path order and draws
// from the placement stream per block, so the dump depends on that order
// and on nothing else about how the namespace is laid out.
func namespaceKillScript(cfg Config) []byte {
	var out bytes.Buffer
	fs := New(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 1000))
	// Prefixes that take a directory or less, so the namespace stays full.
	narrow := []string{"/matrix/C/", "/matrix/C#1~p0/", "/matrix/CC/", "/matrix/C/sub/", "/w/",
		"/matrix/C#1~p", "/matrix/C/s", "/matrix/C/1", "/matrix/CC/0_", "/matrix/C#1~p1/10_1", "1", "C"}
	dump := func(stage string) {
		fmt.Fprintf(&out, "-- %s: %d files\n", stage, len(fs.List("")))
		for _, p := range fs.List("") {
			reps, _ := fs.BlockReplicas(p)
			fmt.Fprintf(&out, "  %s %v\n", p, reps)
		}
		fmt.Fprintf(&out, "  total %+v\n", fs.Stats(-1))
	}
	churn := func(steps int) {
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 7:
				// Two of the three write calls: WritePlaced draws nothing.
				if p := nsPath(rng); !exists(fs, p) {
					writer := rng.Intn(cfg.Nodes)
					if !fs.NodeAlive(writer) {
						writer = -1
					}
					var err error
					if step%2 == 0 {
						err = fs.Write(p, bytes.Repeat([]byte{byte(step)}, 40+rng.Intn(120)), writer)
					} else {
						err = fs.WriteVirtual(p, int64(40+rng.Intn(120)), writer)
					}
					if err != nil {
						fmt.Fprintf(&out, "  write %s: %v\n", p, err)
					}
				}
			case op < 9:
				fs.Delete(nsPath(rng))
			default:
				fs.DeletePrefix(narrow[rng.Intn(len(narrow))])
			}
		}
	}
	churn(120)
	dump("before any kill")
	fmt.Fprintf(&out, "  kill 1 %+v\n", fs.KillNode(1))
	dump("after kill 1")
	churn(80)
	fmt.Fprintf(&out, "  kill 3 %+v\n", fs.KillNode(3))
	dump("after churn and kill 3")
	fs.DeletePrefix("/matrix/C#")
	churn(40)
	fmt.Fprintf(&out, "  kill 0 %+v\n", fs.KillNode(0))
	dump("after DeletePrefix, churn and kill 0")
	return out.Bytes()
}

// TestNamespaceKillGolden holds KillNode after interleaved deletes to what
// the flat-map namespace reported for the same histories (recorded at
// commit e747f59, before the directory index).
func TestNamespaceKillGolden(t *testing.T) {
	var got bytes.Buffer
	for _, seed := range []int64{1, 7, 42} {
		for _, cfg := range []Config{
			{Nodes: 6, Replication: 3, BlockSize: 64, Seed: seed},
			{Nodes: 8, Replication: 3, BlockSize: 64, Seed: seed, RackSize: 4},
		} {
			fmt.Fprintf(&got, "== %+v\n", cfg)
			got.Write(namespaceKillScript(cfg))
		}
	}
	checkGolden(t, "namespace_kill_golden.txt", got.Bytes())
}
