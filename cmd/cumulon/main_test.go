package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestRunBadInputs: malformed flags and flag combinations must return a
// one-line error, never panic and never succeed.
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
		{"positional args", []string{prog}, "unexpected arguments"},
		{"missing file", []string{"-f", filepath.Join(t.TempDir(), "absent.cm")}, "no such file"},
		{"bad machine", []string{"-f", prog, "-machine", "q9.mega"}, "unknown machine type"},
		{"explain without optimize", []string{"-f", prog, "-explain"}, "require -optimize"},
		{"searchtrace without optimize", []string{"-f", prog, "-searchtrace", "-"}, "require -optimize"},
		{"deadline and budget", []string{"-f", prog, "-optimize", "-deadline", "60", "-budget", "5"}, "at most one"},
		{"chaos gibberish", []string{"-f", prog, "-chaos", "gibberish"}, "chaos"},
		{"chaos bad kill", []string{"-f", prog, "-chaos", "kill=x@y"}, "chaos"},
		{"chaos bad rate", []string{"-f", prog, "-chaos", "taskfault=2.5"}, "chaos"},
		{"chaos unknown key", []string{"-f", prog, "-chaos", "frobnicate=1"}, "chaos"},
		{"non-numeric nodes", []string{"-f", prog, "-nodes", "many"}, "invalid value"},
		{"negative workers", []string{"-f", prog, "-materialize", "-workers", "-3"}, "-workers must be >= 0"},
		{"negative workers, virtual run", []string{"-f", prog, "-workers", "-1"}, "-workers must be >= 0"},
		{"resume without checkpoint", []string{"-f", garbled, "-optimize", "-resume"}, "-resume requires -checkpoint"},
		{"checkpoint without state dir", []string{"-f", garbled, "-checkpoint", "1"}, "require -state-dir"},
		{"deadline and budget, garbled program", []string{"-f", garbled, "-optimize", "-deadline", "60", "-budget", "5"}, "at most one"},
		{"zero density", []string{"-f", prog, "-density", "0"}, "density must be in (0, 1]"},
		{"negative density", []string{"-f", prog, "-density", "-1"}, "density must be in (0, 1]"},
		{"density above one", []string{"-f", prog, "-density", "2"}, "density must be in (0, 1]"},
		{"NaN density", []string{"-f", prog, "-density", "NaN"}, "density must be in (0, 1]"},
		{"negative confidence", []string{"-f", prog, "-optimize", "-confidence", "-5"}, "confidence must be 0 or in (0, 1)"},
		{"confidence one", []string{"-f", prog, "-optimize", "-confidence", "1"}, "confidence must be 0 or in (0, 1)"},
		{"confidence as a percentage", []string{"-f", prog, "-optimize", "-confidence", "95"}, "confidence must be 0 or in (0, 1)"},
		{"NaN confidence", []string{"-f", prog, "-optimize", "-confidence", "NaN"}, "confidence must be 0 or in (0, 1)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
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

// TestRunSmallProgram: the happy path still works through the args-based
// entry point.
func TestRunSmallProgram(t *testing.T) {
	if err := run([]string{"-f", writeProg(t), "-tile", "4", "-nodes", "2", "-plan=false"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}
