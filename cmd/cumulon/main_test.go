package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cumulon/internal/cloud"
	"cumulon/internal/lang"
	"cumulon/internal/server"
	"cumulon/internal/workloads"
)

// writeProg drops a small valid program in a temp file for flag tests
// that get past parsing.
func writeProg(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.cm")
	src := "input A 8 8\ninput B 8 8\nC = A * B\noutput C\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunBadInputs: malformed flags and flag combinations, and every value
// the request table refuses, must return a one-line error, never panic and
// never succeed.
func TestRunBadInputs(t *testing.T) {
	prog := writeProg(t)
	// Flag combinations are checked before the program is read: on an
	// unparseable file they still report themselves, not the parse error.
	garbled := filepath.Join(t.TempDir(), "garbled.cm")
	if err := os.WriteFile(garbled, []byte("this is not a program\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"removed kernel profile flag", []string{"-f", prog, "-optimize", "-kernel-profile", "p.json"}, "flag provided but not defined"},
		{"positional args", []string{prog}, "unexpected arguments"},
		{"missing file", []string{"-f", filepath.Join(t.TempDir(), "absent.cm")}, "no such file"},
		{"bad machine", []string{"-f", prog, "-machine", "q9.mega"}, "unknown machine type"},
		{"explain without optimize", []string{"-f", prog, "-explain"}, "explain requires optimize"},
		{"json with explain", []string{"-f", prog, "-optimize", "-explain", "-json"}, "-json prints one JSON document"},
		{"json with critpath", []string{"-f", prog, "-critpath", "-json"}, "-json prints one JSON document"},
		{"json with critpath, optimized", []string{"-f", garbled, "-optimize", "-critpath", "-json"}, "-json prints one JSON document"},
		{"json with dot", []string{"-f", prog, "-dot", "-json"}, "-dot prints the plan DAG"},
		{"json with trace to stdout", []string{"-f", garbled, "-json", "-trace", "-"}, "-trace - writes another"},
		{"json with metrics to stdout", []string{"-f", prog, "-json", "-metrics", "-"}, "-metrics - writes another"},
		{"json with timeline to stdout", []string{"-f", prog, "-json", "-timeline", "-"}, "-timeline - writes another"},
		{"json with searchtrace to stdout", []string{"-f", prog, "-optimize", "-json", "-searchtrace", "-"}, "-searchtrace - writes another"},
		{"json with frontier to stdout", []string{"-f", garbled, "-optimize", "-json", "-frontier", "-"}, "-frontier - writes another"},
		{"searchtrace without optimize", []string{"-f", prog, "-searchtrace", "-"}, "require -optimize"},
		{"frontier without optimize", []string{"-f", prog, "-frontier", "f.svg"}, "require -optimize"},
		{"deadline and budget", []string{"-f", prog, "-optimize", "-deadline", "60", "-budget", "5"}, "at most one"},
		{"deadline and budget without optimize", []string{"-f", prog, "-deadline", "60", "-budget", "5"}, "at most one"},
		{"negative deadline", []string{"-f", prog, "-optimize", "-deadline", "-5"}, "must be non-negative"},
		{"negative budget", []string{"-f", prog, "-optimize", "-budget", "-5"}, "must be non-negative"},
		{"NaN deadline", []string{"-f", prog, "-optimize", "-deadline", "NaN"}, "must be non-negative"},
		{"non-numeric deadline", []string{"-f", prog, "-optimize", "-deadline", "soon"}, "invalid value"},
		{"chaos gibberish", []string{"-f", prog, "-chaos", "gibberish"}, "chaos"},
		{"chaos bad kill", []string{"-f", prog, "-chaos", "kill=x@y"}, "chaos"},
		{"chaos bad rate", []string{"-f", prog, "-chaos", "taskfault=2.5"}, "chaos"},
		{"chaos negative rate", []string{"-f", prog, "-optimize", "-deadline", "60", "-chaos", "readfault=-1"}, "chaos"},
		{"chaos unknown key", []string{"-f", prog, "-chaos", "frobnicate=1"}, "chaos"},
		{"non-numeric nodes", []string{"-f", prog, "-nodes", "many"}, "invalid value"},
		{"negative nodes", []string{"-f", prog, "-nodes", "-3"}, "nodes must be positive"},
		{"nodes above the site's", []string{"-f", prog, "-nodes", "65"}, "cluster capacity is 64"},
		{"negative slots", []string{"-f", prog, "-slots", "-1"}, "slots must be positive"},
		{"negative tile", []string{"-f", prog, "-tile", "-4"}, "tile must be positive"},
		{"negative max nodes", []string{"-f", prog, "-optimize", "-max-nodes", "-3"}, "max_nodes must be non-negative"},
		{"negative checkpoint", []string{"-f", prog, "-checkpoint", "-2"}, "checkpoint_every must be non-negative"},
		{"negative workers", []string{"-f", prog, "-materialize", "-workers", "-3"}, "-workers must be >= 0"},
		{"negative workers, virtual run", []string{"-f", prog, "-workers", "-1"}, "-workers must be >= 0"},
		{"resume without checkpoint", []string{"-f", garbled, "-optimize", "-resume"}, "-resume requires -checkpoint"},
		{"checkpoint without state dir", []string{"-f", garbled, "-checkpoint", "1"}, "require -state-dir"},
		{"deadline and budget, garbled program", []string{"-f", garbled, "-optimize", "-deadline", "60", "-budget", "5"}, "at most one"},
		{"negative density", []string{"-f", prog, "-density", "-1"}, "density must be in (0, 1]"},
		{"density above one", []string{"-f", prog, "-density", "2"}, "density must be in (0, 1]"},
		{"density far above one", []string{"-f", prog, "-optimize", "-deadline", "60", "-density", "1e300"}, "density must be in (0, 1]"},
		{"NaN density", []string{"-f", prog, "-density", "NaN"}, "density must be in (0, 1]"},
		{"negative confidence", []string{"-f", prog, "-optimize", "-confidence", "-5"}, "confidence must be 0 or in (0, 1)"},
		{"confidence one", []string{"-f", prog, "-optimize", "-confidence", "1"}, "confidence must be 0 or in (0, 1)"},
		{"confidence as a percentage", []string{"-f", prog, "-optimize", "-confidence", "95"}, "confidence must be 0 or in (0, 1)"},
		{"NaN confidence", []string{"-f", prog, "-optimize", "-confidence", "NaN"}, "confidence must be 0 or in (0, 1)"},
		{"confidence under a budget", []string{"-f", prog, "-optimize", "-budget", "5", "-confidence", "0.9"}, "needs a deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q, want substring %q", tc.args, err, tc.want)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("error is not one line: %q", err)
			}
		})
	}
}

// TestJSONReportIsJSON: with -json, what cumulon prints is one JSON document,
// with and without -optimize, whatever else is asked for that reports on
// stdout in text mode (the plan).
func TestJSONReportIsJSON(t *testing.T) {
	prog := writeProg(t)
	for _, flags := range [][]string{
		{"-tile", "4", "-nodes", "2"},
		{"-tile", "4", "-nodes", "2", "-plan", "-materialize"},
		{"-tile", "4", "-optimize", "-deadline", "3600", "-max-nodes", "2"},
		{"-tile", "4", "-optimize", "-budget", "5", "-max-nodes", "2", "-plan"},
	} {
		var out bytes.Buffer
		if err := run(append([]string{"-f", prog, "-json"}, flags...), &out); err != nil {
			t.Fatalf("%v: %v", flags, err)
		}
		var report struct {
			Cluster string `json:"cluster"`
		}
		if err := json.Unmarshal(out.Bytes(), &report); err != nil || report.Cluster == "" {
			t.Fatalf("%v: -json printed no JSON report (%v):\n%s", flags, err, out.String())
		}
	}
}

// TestFlagDefaults: a zero or absent value takes the table's default, as it
// does in a cumulond body. -optimize with no constraint searches under a
// 24h deadline, and -max-nodes 0 searches up to the site's 64 nodes.
func TestFlagDefaults(t *testing.T) {
	in, err := parseArgs([]string{"-optimize", "-max-nodes", "0", "-density", "0", "-tile", "0", "-nodes", "0", "-seed", "0", "-max-retries", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	want := server.SubmitRequest{Machine: "m1.large", Nodes: 8, Slots: 2, Tile: 2048, Density: 0.05, Seed: 42,
		Optimize: true, DeadlineSec: 24 * 3600, MaxNodes: 64, MaxRetries: -1}
	if in.req != want {
		t.Fatalf("normalized flags %+v, want %+v", in.req, want)
	}
}

// TestRunSmallProgram: the happy path still works through the args-based
// entry point.
func TestRunSmallProgram(t *testing.T) {
	if err := run([]string{"-f", writeProg(t), "-tile", "4", "-nodes", "2", "-plan=false"}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestOptimizeReport: cumulon -optimize reports the winner with its splits
// and the time/cost frontier, and -plan the CSE rewrites.
func TestOptimizeReport(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "kl.cm")
	if err := os.WriteFile(prog, []byte(workloads.GNMFKL(40, 30, 4, 1, 0.3).Prog.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-f", prog, "-tile", "8", "-optimize", "-deadline", "3600", "-max-nodes", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rewrites: 1 chain(s) eliminated", "  cse ",
		"optimizer chose: ", "  job 0 ", "time/cost frontier (", "total time: "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestOptimizeSearchIgnoresRequestSeed: -seed drives the run's data,
// placement and noise, but the search calibrates with the site's seed, so
// the winner and its predicted time do not move with it.
func TestOptimizeSearchIgnoresRequestSeed(t *testing.T) {
	prog := writeProg(t)
	var first string
	for _, seed := range []string{"42", "7", "1234"} {
		var out bytes.Buffer
		if err := run([]string{"-f", prog, "-tile", "4", "-optimize", "-deadline", "3600", "-max-nodes", "4",
			"-explain", "-seed", seed}, &out); err != nil {
			t.Fatal(err)
		}
		got := predictedLine(out.Bytes())
		if got == "" {
			t.Fatalf("-seed %s: no predicted line in:\n%s", seed, out.String())
		}
		if first == "" {
			first = got
		} else if got != first {
			t.Fatalf("-seed %s predicts %q, the default seed %q", seed, got, first)
		}
	}
}

// TestServerBitIdenticalToCLIPath: a request spelled as cumulon flags and
// the same request as a cumulond body normalize to one SubmitRequest, map
// to the same engine options, and run to the same output digests and total
// seconds. cumulon searches the whole catalog and cumulond its one machine
// type, so the optimized requests name the machine the search picks. Both
// search with the site's seed whatever the request's (see
// server.SubmitRequest.Seed), so an optimized row at another seed predicts
// the same winner time on both paths and runs it with the request's seed.
func TestServerBitIdenticalToCLIPath(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "gnmf.cm")
	src := workloads.GNMF(24, 18, 3, 2, 0.4).Prog.String()
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	parsed, err := lang.ParseFile(prog)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		flags   []string
		body    server.SubmitRequest
		machine string // cumulond's machine type; the site's when empty
	}{
		{"virtual", []string{"-tile", "4", "-nodes", "4"},
			server.SubmitRequest{Tile: 4, Nodes: 4}, ""},
		{"materialized sparse gnmf", []string{"-tile", "4", "-density", "0.4", "-nodes", "4", "-materialize", "-seed", "11"},
			server.SubmitRequest{Tile: 4, Density: 0.4, Nodes: 4, Materialize: true, Seed: 11}, ""},
		{"optimized under a deadline", []string{"-machine", "m1.small", "-tile", "4", "-density", "0.4", "-optimize", "-deadline", "3600", "-max-nodes", "4"},
			server.SubmitRequest{Machine: "m1.small", Tile: 4, Density: 0.4, Optimize: true, DeadlineSec: 3600, MaxNodes: 4}, "m1.small"},
		{"optimized at another seed", []string{"-machine", "m1.small", "-tile", "4", "-density", "0.4", "-optimize", "-deadline", "3600", "-max-nodes", "4",
			"-materialize", "-seed", "7"},
			server.SubmitRequest{Machine: "m1.small", Tile: 4, Density: 0.4, Optimize: true, DeadlineSec: 3600, MaxNodes: 4,
				Materialize: true, Seed: 7}, "m1.small"},
		{"checkpointing under chaos", []string{"-tile", "4", "-density", "0.4", "-nodes", "4", "-materialize", "-seed", "7",
			"-checkpoint", "1", "-state-dir", filepath.Join(dir, "ckpt"), "-chaos", "seed=7,kill=1@3.5", "-max-retries", "8"},
			server.SubmitRequest{Tile: 4, Density: 0.4, Nodes: 4, Materialize: true, Seed: 7,
				CheckpointEvery: 1, Chaos: "seed=7,kill=1@3.5", MaxRetries: 8}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := site
			if tc.machine != "" {
				cfg.Machine = tc.machine
			}
			args := append([]string{"-f", prog}, tc.flags...)
			in, err := parseArgs(args)
			if err != nil {
				t.Fatal(err)
			}
			fromFlags, fromBody := in.req, tc.body
			if err := fromBody.Normalize(cfg); err != nil {
				t.Fatal(err)
			}
			if fromFlags != fromBody {
				t.Fatalf("flags normalize to %+v, the body to %+v", fromFlags, fromBody)
			}
			if a, b := execFields(t, &fromFlags, parsed), execFields(t, &fromBody, parsed); a != b {
				t.Fatalf("engine options from flags %s, from the body %s", a, b)
			}

			var out bytes.Buffer
			if err := run(append(args, "-json"), &out); err != nil {
				t.Fatal(err)
			}
			var cli struct {
				Cluster      string              `json:"cluster"`
				TotalSeconds float64             `json:"total_seconds"`
				Outputs      []server.OutputInfo `json:"outputs"`
			}
			if err := json.Unmarshal(out.Bytes(), &cli); err != nil {
				t.Fatal(err)
			}
			body := tc.body
			body.Tenant, body.Program, body.Explain = "acme", src, body.Optimize
			fin, explain := serverRun(t, cfg, body)
			if fin.State != server.StateSucceeded {
				t.Fatalf("server run %s: %s", fin.State, fin.Error)
			}
			if body.Optimize {
				// The winner's predicted time comes from the calibrated
				// models, so it differs when the paths search with
				// different seeds even where the winner does not.
				var text bytes.Buffer
				if err := run(append(args, "-explain"), &text); err != nil {
					t.Fatal(err)
				}
				if a, b := predictedLine(explain), predictedLine(text.Bytes()); a == "" || a != b {
					t.Fatalf("server's winner %q, cumulon's %q", a, b)
				}
			}
			if fin.Cluster != cli.Cluster || fin.Result.TotalSeconds != cli.TotalSeconds {
				t.Fatalf("server ran %s for %gs, cumulon %s for %gs", fin.Cluster, fin.Result.TotalSeconds, cli.Cluster, cli.TotalSeconds)
			}
			if !reflect.DeepEqual(fin.Result.Outputs, cli.Outputs) {
				t.Fatalf("outputs differ: server %+v, cumulon %+v", fin.Result.Outputs, cli.Outputs)
			}
		})
	}
}

// execFields renders the engine options a request maps to: the cluster,
// seed, retry budget, checkpoint cadence, fault schedule and the digests of
// the generated inputs.
func execFields(t *testing.T, req *server.SubmitRequest, prog *lang.Program) string {
	t.Helper()
	mt, err := cloud.TypeByName(req.Machine)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := cloud.NewCluster(mt, req.Nodes, req.Slots)
	if err != nil {
		t.Fatal(err)
	}
	o, err := req.ExecOptions(prog, cluster)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s seed=%d retries=%d ckpt=%d chaos=%v inputs=%v",
		o.Cluster, o.Seed, o.MaxTaskRetries, o.CheckpointEvery, o.Chaos, server.DigestOutputs(o.Inputs))
}

// predictedLine returns the winner's "predicted" line of an EXPLAIN report.
func predictedLine(report []byte) string {
	for _, l := range strings.Split(string(report), "\n") {
		if strings.HasPrefix(l, "    predicted ") {
			return l
		}
	}
	return ""
}

// serverRun submits body as a POST /v1/jobs body to a fresh cumulond with
// cfg and returns the job's terminal status and, when body asks for one,
// its EXPLAIN report.
func serverRun(t *testing.T, cfg server.Config, body server.SubmitRequest) (server.JobStatus, []byte) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer s.Close()
	defer ts.Close()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, err)
	}
	for deadline := time.Now().Add(60 * time.Second); !st.State.Terminal(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", st.ID, st.State)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !body.Explain {
		return st, nil
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	explain, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d %v", resp.StatusCode, err)
	}
	return st, explain
}
