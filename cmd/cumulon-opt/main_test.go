package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeProg(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.cm")
	src := "input A 8 8\ninput B 8 8\nC = A * B\noutput C\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunBadInputs: malformed flags, constraint combinations and chaos
// specs must return a one-line error, never panic and never succeed.
func TestRunBadInputs(t *testing.T) {
	prog := writeProg(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"positional args", []string{"-deadline", "60", prog}, "unexpected arguments"},
		{"no constraint", []string{"-f", prog}, "exactly one"},
		{"both constraints", []string{"-f", prog, "-deadline", "60", "-budget", "5"}, "exactly one"},
		{"missing file", []string{"-deadline", "60", "-f", filepath.Join(t.TempDir(), "absent.cm")}, "no such file"},
		{"chaos gibberish", []string{"-f", prog, "-deadline", "60", "-chaos", "gibberish"}, "chaos"},
		{"chaos bad kill", []string{"-f", prog, "-deadline", "60", "-chaos", "kill=x@y"}, "chaos"},
		{"chaos bad rate", []string{"-f", prog, "-deadline", "60", "-chaos", "readfault=-1"}, "chaos"},
		{"non-numeric deadline", []string{"-f", prog, "-deadline", "soon"}, "invalid value"},
		{"negative density", []string{"-f", prog, "-deadline", "60", "-density", "-1"}, "density must be in (0, 1]"},
		{"density above one", []string{"-f", prog, "-deadline", "60", "-density", "1e300"}, "density must be in (0, 1]"},
		{"negative confidence", []string{"-f", prog, "-deadline", "60", "-confidence", "-5"}, "confidence must be 0 or in (0, 1)"},
		{"confidence one", []string{"-f", prog, "-deadline", "60", "-confidence", "1"}, "confidence must be 0 or in (0, 1)"},
		{"confidence as a percentage", []string{"-f", prog, "-deadline", "600", "-confidence", "95"}, "confidence must be 0 or in (0, 1)"},
		{"NaN confidence", []string{"-f", prog, "-deadline", "60", "-confidence", "NaN"}, "confidence must be 0 or in (0, 1)"},
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
