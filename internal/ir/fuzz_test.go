package ir

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds Parse arbitrary text. It must not panic, and a module
// it accepts must print as text that Parse accepts again and that
// prints the same. The seed corpus is the paper-figure sources of
// core/testdata plus one line of every construct the printer emits.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "core", "testdata", "*.ir"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed files: %v", err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(`global tab bytes=800 align=64
func g(1) local unprotected handler frame=16 {
entry:
  v1 = frameaddr 8
  v2 = cmp lt v0, #-3
  v3 = armw cas v1, #1, #0x10 !extern
  v4 = fadd #1.5, #2e3 !shadow,check
  store v1, v3 volatile
  br v2, a, b
a:
  v5 = call @h v0 !txhelper
  jmp b
b:
  v6 = phi #0 [entry], v5 [a]
  ret v6
}
func h(1) {
entry:
  ret v0
}
`)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			return
		}
		text := m.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("printed module does not parse: %v\n%s", err, text)
		}
		if got := again.String(); got != text {
			t.Fatalf("print(parse(print(m))) differs from print(m):\n%s\nvs\n%s", got, text)
		}
	})
}

// TestParseRejectsFuzzFindings: what FuzzParse found. A negative
// parameter count was accepted, a register id past 2^32 silently named
// a low register (v4294967296 was v0), a large one made Verify allocate
// a flag per register (100 MB for v100000000), and a second function or
// global of one name panicked in Module.AddFunc/AddGlobal. Negative
// global sizes and alignments, which Layout would wrap, go with them.
func TestParseRejectsFuzzFindings(t *testing.T) {
	for _, src := range []string{
		"func f(-2) {\nentry:\n  ret\n}\n",
		"func f(2000000000) {\nentry:\n  ret\n}\n",
		"func f(0) {\nentry:\n  v4294967296 = add #1, #2\n  ret v0\n}\n",
		"func f(0) {\nentry:\n  v100000000 = add #1, #2\n  ret v100000000\n}\n",
		"func f(1) {\nentry:\n  v1 = add v-1, #2\n  ret v1\n}\n",
		"func (0){\n}\nfunc (0){\n}",
		"global g bytes=8\nglobal g bytes=16\n",
		"global g bytes=-16\n",
		"global g bytes=8 align=-64\n",
	} {
		if m, err := Parse(src); err == nil {
			t.Errorf("Parse accepted %q as\n%s", src, m)
		}
	}
}
