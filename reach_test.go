package cumulon

// The reachability gate: every package-level declaration of a production
// package must be reachable from what the binaries run. One that only tests
// reach is test code shipped in production; it belongs in its package's
// _test.go files, in internal/testutil, or in reachAllowlist with a reason.
// A second pass walks from the binaries and examples alone: one that only
// the benchmark (perf/) reaches is benchmark code shipped in production, and
// needs an entry in perfOnlyAllowlist.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the production declarations that nothing the
// binaries run reaches but that stay in production code, each with the
// reason. An entry that is reached, or no longer exists, fails the test.
var reachAllowlist = map[string]string{
	"linalg.GemmTB": "the transposed-B product reference that compute/oracle_test.go checks the engine's tile ops against",
	"linalg.Map":    "the element-wise map reference that compute/oracle_test.go checks the engine's tile ops against",
	"linalg.Scale":  "the scaling reference that compute/oracle_test.go checks the engine's tile ops against",
	"linalg.Zip":    "the element-wise binary reference that compute/oracle_test.go checks the engine's tile ops against",

	"linalg.(*Dense).AlmostEqual": "the tolerance comparison the engine, interpreter, baseline and store tests of twelve packages check results with",
	"linalg.Close":                "AlmostEqual's element rule; lang's tests compare single elements with it",
	"linalg.ConstDense":           "constant inputs for four packages' tests and core's runnable example, whose printed output go test checks",
	"dfs.(*FS).List":              "the namespace listing: dfs tests hold it to an oracle, engine and store tests check with it what a run or a matrix drop leaves behind",
}

// perfOnlyAllowlist names the production declarations that only the
// benchmark reaches, each with the reason. An entry that the binaries or the
// examples reach, or that no longer exists, fails the test.
var perfOnlyAllowlist = map[string]string{
	"dfs.(*FS).Write":                 perfOnly,
	"dfs.(*FS).WriteVirtual":          perfOnly,
	"dfs.(*FS).ReadAccount":           perfOnly,
	"dfs.(*FS).Peek":                  perfOnly,
	"dfs.DefaultConfig":               perfOnly,
	"store.DecodeTile":                perfOnly,
	"store.DecodeSparseTile":          perfOnly,
	"linalg.(*CSRTile).ToDense":       perfOnly,
	"linalg.(*Dense).TileAt":          perfOnly,
	"linalg.DenseToCSR":               perfOnly,
	"linalg.GemmTA":                   perfOnly,
	"linalg.NewTile":                  perfOnly,
	"plan.TaskProfiles":               perfOnly,
	"sim.(*Predictor).OptimizeSplits": perfOnly,
	"opt.Replay":                      perfOnly,
	"opt.ReplayedWinner":              perfOnly,
	"opt.replayWinner":                perfOnly,
	"core.(*Session).CompileString":   perfOnly,
	"ckpt.(*DirStore).Root":           perfOnly,
}

const perfOnly = "only perf/ calls it; goes with ROADMAP item 20(c)"

// perfPath is the benchmark: a root of the first pass only, whose own
// declarations the second pass does not check.
const perfPath = "cumulon/perf"

// isBinaryRoot reports whether main and init of the package at path are
// roots of the second pass: the binaries and the examples.
func isBinaryRoot(path string) bool {
	return strings.HasPrefix(path, "cumulon/cmd/") || strings.HasPrefix(path, "cumulon/examples/")
}

// isReachRoot reports whether main and init of the package at path are
// roots of the first pass: the binaries, the examples and the benchmark.
func isReachRoot(path string) bool { return isBinaryRoot(path) || path == perfPath }

// testutilPath holds test support: its declarations are not checked, and
// no production package may import it.
const testutilPath = "cumulon/internal/testutil"

// reachBuilds are the builds CI tests, by their tags. A declaration is
// unreached only if it is unreached in every build that compiles it.
var reachBuilds = [][]string{nil, {"purego"}}

// implicitIfaces are standard interfaces that the standard library calls
// through reflection or type assertions, so no caller names them.
var implicitIfaces = map[string][]string{
	"encoding":      {"TextMarshaler", "TextUnmarshaler"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
	"fmt":           {"Stringer", "GoStringer", "Formatter"},
	"io":            {"WriterTo", "ReaderFrom"},
}

// listedPackage is the part of `go list -json` output the walk reads.
type listedPackage struct {
	ImportPath     string
	Dir            string
	Standard       bool
	Export         string
	GoFiles        []string
	IgnoredGoFiles []string
	Imports        []string
	Error          *struct{ Err string }
}

// TestEveryExportReached walks every production declaration reachable from
// the roots — main and init of the binaries, the examples and perf, and the
// init functions and package-level var initializers of every package they
// link — and fails on any other that is not allowlisted. Its second pass
// walks again without perf as a root and fails on any declaration outside
// perf that only the first pass reached and perfOnlyAllowlist does not
// name. A method is reached when its receiver type is and it implements an
// interface that reached code uses; an iota const group is reached when any
// member is.
// The standard library comes from gc export data; the repo's packages are
// type-checked from source once per build, in dependency order.
func TestEveryExportReached(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-export", "-json", "./...").Output()
	if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
		t.Fatalf("go list: %v\n%s", err, ee.Stderr)
	} else if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	var repo []*listedPackage // dependencies before their importers
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		switch {
		case p.Error != nil:
			t.Fatalf("%s: %s", p.ImportPath, p.Error.Err)
		case p.Standard:
			exports[p.ImportPath] = p.Export
		default:
			repo = append(repo, p)
			if p.ImportPath != testutilPath && slices.Contains(p.Imports, testutilPath) {
				t.Errorf("production package %s imports %s", p.ImportPath, testutilPath)
			}
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	parsed := map[string]*ast.File{}
	decls := map[token.Pos]*reachDecl{} // by the position of the declared name
	for _, tags := range reachBuilds {
		w, err := checkBuild(fset, std, repo, tags, parsed)
		if err != nil {
			t.Fatalf("tags %v: %v", tags, err)
		}
		for pass, roots := range []func(string) bool{isReachRoot, isBinaryRoot} {
			reached := w.walk(roots)
			for _, d := range w.decls {
				if prev, ok := decls[d.pos]; ok {
					d = prev
				} else {
					decls[d.pos] = d
				}
				d.reached[pass] = d.reached[pass] || reached[d.obj]
			}
		}
	}

	var all, outsidePerf []*reachDecl
	for _, d := range decls {
		all = append(all, d)
		if _, ok := reachAllowlist[d.name]; !ok && d.obj.Pkg().Path() != perfPath {
			outsidePerf = append(outsidePerf, d)
		}
	}
	hits := reportUnreached(t, all, 0, reachAllowlist, "reachAllowlist",
		"no main, init or package var initializer reaches it; delete it, move it into its package's tests, or allowlist it with the reason")
	perfOnly := reportUnreached(t, outsidePerf, 1, perfOnlyAllowlist, "perfOnlyAllowlist",
		"only perf/ reaches it; point perf at what production calls, or allowlist it with the reason")
	t.Logf("%d declarations in %d packages, %d builds: %d unreached and not allowlisted, %d more only perf/ reaches",
		len(decls), len(repo), len(reachBuilds), hits, perfOnly)
}

// reportUnreached fails on every declaration of decls that the walk of the
// given pass did not reach and allow does not name, and on every entry of
// allow that is reached or names none of decls. It returns the number of
// declarations it failed on.
func reportUnreached(t *testing.T, decls []*reachDecl, pass int, allow map[string]string, allowName, fix string) int {
	t.Helper()
	unreached := map[string][]*reachDecl{}
	reachedName := map[string]bool{}
	for _, d := range decls {
		if d.reached[pass] {
			reachedName[d.name] = true
		} else {
			unreached[d.name] = append(unreached[d.name], d)
		}
	}
	var hits []string
	for name, ds := range unreached {
		if _, ok := allow[name]; ok || reachedName[name] {
			continue
		}
		for _, d := range ds {
			hits = append(hits, fmt.Sprintf("%s (%s)", name, d.where))
		}
	}
	sort.Strings(hits)
	for _, h := range hits {
		t.Errorf("%s: %s", h, fix)
	}
	for name := range allow {
		switch {
		case reachedName[name]:
			t.Errorf("allowlisted %s is reached: remove its %s entry", name, allowName)
		case unreached[name] == nil:
			t.Errorf("allowlisted %s does not exist: remove its %s entry", name, allowName)
		}
	}
	return len(hits)
}

// reachDecl is one package-level declaration of a production package.
type reachDecl struct {
	obj     types.Object
	pos     token.Pos
	name    string  // linalg.Close, linalg.(*Dense).AlmostEqual, dfs.FS
	where   string  // internal/linalg/tile.go:56
	reached [2]bool // by the walk from every root, and by the one without perf
}

// reachEntry is where a walk can start: main or an init function of a
// package, or one of its package-level var initializers.
type reachEntry struct {
	pkg  string
	obj  types.Object // main or init; nil for a var initializer
	spec ast.Node     // the var initializer
}

// reachWalker holds one build's type-checked repo and the walk over it.
type reachWalker struct {
	info     *types.Info
	repo     map[*types.Package]bool
	node     map[types.Object]ast.Node       // the declaration that defines each object
	group    map[types.Object][]types.Object // an iota const's whole group
	decls    []*reachDecl
	order    []string            // the repo's packages, dependencies before their importers
	imports  map[string][]string // by package
	entries  []reachEntry
	implicit []types.Object // implicitIfaces that this build links
	// The state of one walk.
	reached map[types.Object]bool
	queue   []ast.Node                    // declarations and var initializers to walk
	methods []*types.MethodSet            // of *T for each reached repo type T that has methods
	ifaces  map[string][]*types.Interface // used interfaces, by method name
	seen    map[*types.Interface]bool
}

// checkBuild type-checks the repo's packages, in dependency order, as the
// build with the given tags compiles them, and collects their declarations
// and the entries a walk can start from.
func checkBuild(fset *token.FileSet, std types.Importer, repo []*listedPackage, tags []string, parsed map[string]*ast.File) (*reachWalker, error) {
	ctx := build.Default
	ctx.BuildTags = tags
	w := &reachWalker{
		info:    &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		repo:    map[*types.Package]bool{},
		node:    map[types.Object]ast.Node{},
		group:   map[types.Object][]types.Object{},
		imports: map[string][]string{},
	}
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	for _, p := range repo {
		w.order = append(w.order, p.ImportPath)
		w.imports[p.ImportPath] = p.Imports
		var files []*ast.File
		for _, name := range append(slices.Clone(p.GoFiles), p.IgnoredGoFiles...) {
			if ok, err := ctx.MatchFile(p.Dir, name); err != nil {
				return nil, err
			} else if !ok || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(p.Dir, name)
			f, ok := parsed[path]
			if !ok {
				var err error
				if f, err = parser.ParseFile(fset, path, nil, parser.SkipObjectResolution); err != nil {
					return nil, err
				}
				parsed[path] = f
			}
			files = append(files, f)
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, w.info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		w.repo[pkg] = true

		short := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, "cumulon/"), "internal/")
		declare := func(id *ast.Ident, name string, n ast.Node) types.Object {
			obj := w.info.Defs[id]
			w.node[obj] = n
			if id.Name != "_" && p.ImportPath != testutilPath {
				pos := fset.Position(id.Pos())
				w.decls = append(w.decls, &reachDecl{obj: obj, pos: id.Pos(), name: short + "." + name,
					where: fmt.Sprintf("%s/%s:%d", strings.TrimPrefix(p.ImportPath, "cumulon/"), filepath.Base(pos.Filename), pos.Line)})
			}
			return obj
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					name := decl.Name.Name
					if decl.Recv == nil && (name == "init" || name == "main" && isReachRoot(p.ImportPath)) {
						obj := w.info.Defs[decl.Name]
						w.node[obj] = decl
						w.entries = append(w.entries, reachEntry{pkg: p.ImportPath, obj: obj})
						continue
					}
					if decl.Recv != nil {
						name = recvName(decl.Recv.List[0].Type) + "." + name
					}
					declare(decl.Name, name, decl)
				case *ast.GenDecl:
					var objs []types.Object
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							declare(spec.Name, spec.Name.Name, spec)
						case *ast.ValueSpec:
							if decl.Tok == token.VAR && len(spec.Values) > 0 {
								w.entries = append(w.entries, reachEntry{pkg: p.ImportPath, spec: spec}) // it runs at init
							}
							for _, id := range spec.Names {
								objs = append(objs, declare(id, id.Name, spec))
							}
						}
					}
					if decl.Tok == token.CONST && usesIota(w.info, decl) {
						for _, obj := range objs {
							w.group[obj] = objs
						}
					}
				}
			}
		}
	}
	for path, names := range implicitIfaces {
		if pkg, err := std.Import(path); err == nil { // else nothing links it
			for _, name := range names {
				w.implicit = append(w.implicit, pkg.Scope().Lookup(name))
			}
		}
	}
	return w, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recvName renders a method's receiver type as T or (*T), without type
// parameters.
func recvName(e ast.Expr) string {
	star := false
	if s, ok := e.(*ast.StarExpr); ok {
		star, e = true, s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	name := e.(*ast.Ident).Name
	if star {
		name = "(*" + name + ")"
	}
	return name
}

func usesIota(info *types.Info, decl *ast.GenDecl) bool {
	found := false
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("iota") {
			found = true
		}
		return !found
	})
	return found
}

// mark records obj as reached and queues what walking it needs.
func (w *reachWalker) mark(obj types.Object) {
	switch o := obj.(type) {
	case nil:
		return
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if w.reached[obj] {
		return
	}
	w.reached[obj] = true
	if n, ok := w.node[obj]; ok {
		w.queue = append(w.queue, n)
		for _, member := range w.group[obj] {
			w.mark(member)
		}
	}
	tn, isType := obj.(*types.TypeName)
	if isType && w.repo[obj.Pkg()] && !types.IsInterface(tn.Type()) {
		if ms := types.NewMethodSet(types.NewPointer(tn.Type())); ms.Len() > 0 {
			w.methods = append(w.methods, ms)
		}
	}
	// The repo's functions and variables are walked from their source,
	// the rest through their types.
	if isType || !w.repo[obj.Pkg()] {
		w.useType(obj.Type(), 0)
	}
}

// useType records the interfaces t is, or carries in its elements or
// signature: reached code can call through them.
func (w *reachWalker) useType(t types.Type, depth int) {
	if depth > 4 {
		return
	}
	switch t := t.(type) {
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok {
			w.useIface(it)
		}
	case *types.Interface:
		w.useIface(t)
	case *types.Pointer:
		w.useType(t.Elem(), depth+1)
	case *types.Slice:
		w.useType(t.Elem(), depth+1)
	case *types.Array:
		w.useType(t.Elem(), depth+1)
	case *types.Chan:
		w.useType(t.Elem(), depth+1)
	case *types.Map:
		w.useType(t.Key(), depth+1)
		w.useType(t.Elem(), depth+1)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				w.useType(tup.At(i).Type(), depth+1)
			}
		}
	}
}

func (w *reachWalker) useIface(it *types.Interface) {
	if it.NumMethods() == 0 || w.seen[it] {
		return
	}
	w.seen[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		w.ifaces[name] = append(w.ifaces[name], it)
	}
}

// walk marks main of every package roots accepts, init and the var
// initializers of every package they link, everything those use, and every
// method of a reached type that implements a used interface, until nothing
// changes. It returns what it reached.
func (w *reachWalker) walk(roots func(path string) bool) map[types.Object]bool {
	w.reached, w.methods = map[types.Object]bool{}, nil
	w.ifaces, w.seen = map[string][]*types.Interface{}, map[*types.Interface]bool{}
	linked := map[string]bool{} // imported, directly or not, by a root
	for i := len(w.order) - 1; i >= 0; i-- {
		if p := w.order[i]; roots(p) || linked[p] {
			linked[p] = true
			for _, imp := range w.imports[p] {
				linked[imp] = true
			}
		}
	}
	for _, e := range w.entries {
		switch {
		case !linked[e.pkg] || e.obj != nil && e.obj.Name() == "main" && !roots(e.pkg):
			// Not linked, or a main that is not a root's: it never runs.
		case e.obj != nil:
			w.mark(e.obj)
		default:
			w.queue = append(w.queue, e.spec)
		}
	}
	for _, obj := range w.implicit {
		w.mark(obj)
	}
	for {
		for len(w.queue) > 0 {
			n := w.queue[len(w.queue)-1]
			w.queue = w.queue[:len(w.queue)-1]
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					w.mark(w.info.Uses[n])
				case *ast.InterfaceType: // a literal one: its methods' receiver is the interface
					for _, m := range n.Methods.List {
						if len(m.Names) > 0 {
							w.useType(w.info.Defs[m.Names[0]].Type().(*types.Signature).Recv().Type(), 0)
							break
						}
					}
				}
				return true
			})
		}
		for _, ms := range w.methods {
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj()
				if w.reached[m] {
					continue
				}
				ptr := ms.At(i).Recv()
				for _, it := range w.ifaces[m.Name()] {
					if types.Implements(ptr, it) {
						w.mark(m)
						break
					}
				}
			}
		}
		if len(w.queue) == 0 {
			return w.reached
		}
	}
}
