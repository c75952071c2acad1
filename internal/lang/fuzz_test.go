package lang_test

import (
	"testing"

	"cumulon/internal/lang"
	"cumulon/internal/plan"
)

// FuzzParse feeds the parser what cumulond accepts from any client: program
// text, here with a tile size. Parse must never panic, and a program it
// accepts must never make Validate, or plan.Compile at the fuzzed tile size
// (1 to 2^20) and AutoSplit over 8 slots, panic either: each returns an error
// or a plan. The seeds under testdata/fuzz are the programs of examples/ and
// of CI's resume smoke.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, tile uint32) {
		prog, err := lang.Parse(src)
		if err != nil {
			return
		}
		prog.Validate()
		pl, err := plan.Compile(prog, plan.Config{TileSize: 1 + int(tile%(1<<20))})
		if err != nil {
			return
		}
		pl.AutoSplit(8)
	})
}
