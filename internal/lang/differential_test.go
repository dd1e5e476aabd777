package lang

// Differential testing of the code generator: random source programs
// are executed by the reference AST interpreter and by the compiled IR
// on the machine simulator — natively, optimized, and HAFT-hardened —
// and all outputs must agree exactly. The code generator is under test,
// not the dispatch, so the runs take run-ahead turns (the program fuzzer
// in fuzz_pipeline_test.go holds stepwise dispatch to them).

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/vm"
)

// srcGen emits random but well-formed, terminating source programs.
type srcGen struct {
	rng    *rand.Rand
	sb     strings.Builder
	vars   []string // in-scope locals
	nvar   int
	nloop  int
	indent int
}

func (g *srcGen) linef(format string, args ...interface{}) {
	g.sb.WriteString(strings.Repeat("  ", g.indent))
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteByte('\n')
}

// expr builds a random expression over in-scope variables; depth
// bounds recursion.
func (g *srcGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Intn(2000)-1000)
		case 1:
			if len(g.vars) > 0 {
				return g.vars[g.rng.Intn(len(g.vars))]
			}
			return fmt.Sprintf("%d", g.rng.Intn(100))
		default:
			return fmt.Sprintf("arr[(%s) & 15]", g.exprLeaf())
		}
	}
	switch g.rng.Intn(10) {
	case 0:
		return fmt.Sprintf("(-%s)", g.expr(depth-1))
	case 1:
		return fmt.Sprintf("(~%s)", g.expr(depth-1))
	case 2:
		return fmt.Sprintf("(!%s)", g.expr(depth-1))
	case 3:
		// Division guarded against zero.
		return fmt.Sprintf("(%s / ((%s) | 1))", g.expr(depth-1), g.expr(depth-1))
	case 4:
		return fmt.Sprintf("mix(%s)", g.expr(depth-1))
	default:
		ops := []string{"+", "-", "*", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}
		op := ops[g.rng.Intn(len(ops))]
		rhs := g.expr(depth - 1)
		if op == "<<" || op == ">>" {
			rhs = fmt.Sprintf("((%s) & 31)", rhs)
		}
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, rhs)
	}
}

func (g *srcGen) exprLeaf() string {
	if len(g.vars) > 0 && g.rng.Intn(2) == 0 {
		return g.vars[g.rng.Intn(len(g.vars))]
	}
	return fmt.Sprintf("%d", g.rng.Intn(64))
}

func (g *srcGen) stmt(depth int) {
	switch r := g.rng.Intn(10); {
	case r < 3:
		name := fmt.Sprintf("v%d", g.nvar)
		g.nvar++
		g.linef("var %s = %s;", name, g.expr(2))
		g.vars = append(g.vars, name)
	case r < 5 && len(g.vars) > 0:
		g.linef("%s = %s;", g.vars[g.rng.Intn(len(g.vars))], g.expr(2))
	case r < 7:
		g.linef("arr[(%s) & 15] = %s;", g.exprLeaf(), g.expr(2))
	case r < 9 && depth < 3:
		g.linef("if (%s) {", g.expr(1))
		g.indent++
		saved := len(g.vars)
		g.block(depth+1, 2)
		g.vars = g.vars[:saved]
		g.indent--
		if g.rng.Intn(2) == 0 {
			g.linef("} else {")
			g.indent++
			saved := len(g.vars)
			g.block(depth+1, 2)
			g.vars = g.vars[:saved]
			g.indent--
		}
		g.linef("}")
	default:
		if depth < 3 && g.nloop < 4 {
			g.nloop++
			cnt := fmt.Sprintf("i%d", g.nvar)
			g.nvar++
			bound := g.rng.Intn(9) + 2
			g.linef("var %s = 0;", cnt)
			g.linef("while (%s < %d) {", cnt, bound)
			g.indent++
			saved := len(g.vars)
			g.vars = append(g.vars, cnt)
			g.block(depth+1, 2)
			g.vars = g.vars[:saved]
			g.linef("%s = %s + 1;", cnt, cnt)
			g.indent--
			g.linef("}")
		} else if len(g.vars) > 0 {
			g.linef("%s = %s;", g.vars[g.rng.Intn(len(g.vars))], g.expr(1))
		} else {
			g.linef("arr[0] = %s;", g.expr(1))
		}
	}
}

func (g *srcGen) block(depth, n int) {
	steps := g.rng.Intn(n) + 1
	for i := 0; i < steps; i++ {
		g.stmt(depth)
	}
}

// generate produces a full program: a helper, random main body, and a
// final checksum over the global array.
func generate(seed int64) string {
	g := &srcGen{rng: rand.New(rand.NewSource(seed))}
	g.linef("global arr[16];")
	g.linef("func mix(x) local {")
	g.indent++
	g.linef("var h = x * 2654435761;")
	g.linef("return h ^ (h >> 13);")
	g.indent--
	g.linef("}")
	g.linef("func main() {")
	g.indent++
	g.linef("var seed = %d;", seed)
	g.vars = append(g.vars, "seed")
	g.block(0, 6)
	g.linef("var ck = 0;")
	g.linef("var k = 0;")
	g.linef("while (k < 16) {")
	g.indent++
	g.linef("ck = ck * 31 + arr[k];")
	g.linef("k = k + 1;")
	g.indent--
	g.linef("}")
	g.linef("out(ck);")
	g.indent--
	g.linef("}")
	return g.sb.String()
}

func TestDifferentialCompilerVsInterpreter(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	agreed := 0
	for seed := 0; seed < seeds; seed++ {
		src := generate(int64(seed))
		prog, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("seed %d: generated source does not parse: %v\n%s", seed, err, src)
		}
		want, ierr := Interp(prog)
		m, cerr := CompileProgram(prog)
		if cerr != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, cerr, src)
		}
		if ierr != nil {
			// The oracle rejected the program (e.g. a division by zero
			// the guard missed): the compiled run must not silently
			// produce output either — it must crash the same way. The
			// budget is fuzzRun's: a program the oracle's step limit
			// rejected must not burn the default 500M instructions.
			cfg := vmQuiet()
			cfg.MaxDynInstrs = 10_000_000
			mach := vm.NewFromProgram(vm.Compile(m), 1, cfg)
			mach.Run(vm.ThreadSpec{Func: "main"})
			if mach.Status() == vm.StatusOK {
				t.Fatalf("seed %d: oracle failed (%v) but compiled run succeeded\n%s", seed, ierr, src)
			}
			continue
		}
		variants := map[string]func() []uint64{
			"native": func() []uint64 {
				mach := vm.NewFromProgram(vm.Compile(m.Clone()), 1, vmQuiet())
				mach.Run(vm.ThreadSpec{Func: "main"})
				if mach.Status() != vm.StatusOK {
					t.Fatalf("seed %d native: %v (%s)\n%s", seed, mach.Status(), mach.Stats().CrashReason, src)
				}
				return mach.Output()
			},
			"optimized": func() []uint64 {
				mo := m.Clone()
				opt.Apply(mo)
				mach := vm.NewFromProgram(vm.Compile(mo), 1, vmQuiet())
				mach.Run(vm.ThreadSpec{Func: "main"})
				if mach.Status() != vm.StatusOK {
					t.Fatalf("seed %d optimized: %v\n%s", seed, mach.Status(), src)
				}
				return mach.Output()
			},
			"haft": func() []uint64 {
				h := core.MustHarden(m, core.Config{Mode: core.ModeHAFT, Opt: core.OptFaultProp, TxThreshold: 300})
				mach := vm.NewFromProgram(vm.Compile(h), 1, vmQuiet())
				mach.Run(vm.ThreadSpec{Func: "main"})
				if mach.Status() != vm.StatusOK {
					t.Fatalf("seed %d haft: %v\n%s", seed, mach.Status(), src)
				}
				return mach.Output()
			},
		}
		for name, runV := range variants {
			got := runV()
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: output %v, oracle %v\n%s", seed, name, got, want, src)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: output[%d]=%d, oracle %d\n%s", seed, name, i, got[i], want[i], src)
				}
			}
		}
		agreed++
	}
	t.Logf("%d/%d generated programs agreed across interpreter, native, optimized and HAFT", agreed, seeds)
}
