package lang

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ir"
)

// FuzzParseProgram feeds arbitrary source to the front end: parsing and
// compiling must never panic, and every module that compiles must pass
// ir.Verify. The seeds are the ported benchmarks and the fuzz corpus.
func FuzzParseProgram(f *testing.F) {
	for _, pat := range []string{"testdata/*.hc", filepath.Join(fuzzCorpusDir, "*.hc")} {
		files, err := filepath.Glob(pat)
		if err != nil {
			f.Fatal(err)
		}
		for _, fp := range files {
			src, err := os.ReadFile(fp)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 8<<10 {
			return // larger inputs only slow the fuzzer down
		}
		prog, err := ParseProgram(src)
		if err != nil {
			return
		}
		m, err := CompileProgram(prog)
		if err != nil {
			return
		}
		if err := ir.Verify(m); err != nil {
			t.Fatalf("compiled module fails verification: %v\n%s", err, src)
		}
	})
}
