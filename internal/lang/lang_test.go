package lang

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
)

func vmQuiet() vm.Config {
	cfg := vm.DefaultConfig()
	cfg.HTM.SpontaneousPerAccessMicro = 0
	cfg.HTM.InterruptPeriod = 0
	cfg.HTM.MaxCycles = 0
	return cfg
}

// compileSSA compiles src and checks full SSA dominance on the result.
func compileSSA(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	checkSSA(t, m)
	return m
}

// checkSSA fails t unless every use in m is dominated by its definition.
func checkSSA(t *testing.T, m *ir.Module) {
	t.Helper()
	for _, f := range m.Funcs {
		if err := cfg.VerifySSA(f); err != nil {
			t.Fatalf("ssa: %v", err)
		}
	}
}

func run(t *testing.T, src string, threads int) *vm.Machine {
	t.Helper()
	mach := vm.New(compileSSA(t, src), threads, vmQuiet())
	specs := make([]vm.ThreadSpec, threads)
	for i := range specs {
		specs[i] = vm.ThreadSpec{Func: "main"}
	}
	mach.Run(specs...)
	if mach.Status() != vm.StatusOK {
		t.Fatalf("run: %v (%s)", mach.Status(), mach.Stats().CrashReason)
	}
	return mach
}

func TestArithmeticAndPrecedence(t *testing.T) {
	mach := run(t, `
func main() {
  out(2 + 3 * 4);          // 14
  out((2 + 3) * 4);        // 20
  out(10 - 2 - 3);         // 5 (left assoc)
  out(1 << 4 | 3);         // 19
  out(7 % 3 + 100 / 10);   // 11
  out(-5 + 8);             // 3
  out(!0 + !7);            // 1
  out(~0 >> 60);           // 15
  out(5 > 3 && 2 < 1);     // 0
  out(5 > 3 || 2 < 1);     // 1
}
`, 1)
	want := []uint64{14, 20, 5, 19, 11, 3, 1, 15, 0, 1}
	got := mach.Output()
	if len(got) != len(want) {
		t.Fatalf("output %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestControlFlowAndLocals(t *testing.T) {
	mach := run(t, `
func main() {
  var sum = 0;
  var i = 0;
  while (i < 10) {
    if (i % 2 == 0) {
      sum = sum + i;
    } else {
      sum = sum + 1;
    }
    i = i + 1;
  }
  out(sum);   // evens 0+2+4+6+8=20 plus five odd 1s = 25
}
`, 1)
	if got := mach.Output(); len(got) != 1 || got[0] != 25 {
		t.Fatalf("output = %v, want [25]", got)
	}
}

func TestGlobalsAndArrays(t *testing.T) {
	mach := run(t, `
global total;
global table[16];

func main() {
  var i = 0;
  while (i < 16) {
    table[i] = i * i;
    i = i + 1;
  }
  i = 0;
  while (i < 16) {
    total = total + table[i];
    i = i + 1;
  }
  out(total);  // sum of squares 0..15 = 1240
}
`, 1)
	if got := mach.Output(); got[0] != 1240 {
		t.Fatalf("output = %v, want [1240]", got)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	mach := run(t, `
func fib(n) local {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
func main() {
  out(fib(12));   // 144
}
`, 1)
	if got := mach.Output(); got[0] != 144 {
		t.Fatalf("fib(12) = %v, want 144", got)
	}
}

func TestEarlyReturnAndDeadCode(t *testing.T) {
	mach := run(t, `
func pick(x) {
  if (x > 10) { return 1; }
  return 0;
  out(999);  // unreachable
}
func main() {
  out(pick(20));
  out(pick(5));
}
`, 1)
	got := mach.Output()
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("output = %v, want [1 0]", got)
	}
}

func TestThreadsAtomicsBarrier(t *testing.T) {
	mach := run(t, `
global counter;
global bar;

func main() {
  var i = 0;
  while (i < 500) {
    atomic_add(addr(counter), 1);
    i = i + 1;
  }
  barrier(addr(bar), thread_count());
  if (thread_id() == 0) {
    out(atomic_load(addr(counter)));
  }
}
`, 4)
	if got := mach.Output(); len(got) != 1 || got[0] != 2000 {
		t.Fatalf("output = %v, want [2000]", got)
	}
}

func TestLocksProtectPlainIncrements(t *testing.T) {
	mach := run(t, `
global counter;
global lk;
global bar;

func main() {
  var i = 0;
  while (i < 200) {
    lock(addr(lk));
    counter = counter + 1;
    unlock(addr(lk));
    i = i + 1;
  }
  barrier(addr(bar), thread_count());
  if (thread_id() == 0) { out(counter); }
}
`, 3)
	if got := mach.Output(); len(got) != 1 || got[0] != 600 {
		t.Fatalf("output = %v, want [600]", got)
	}
}

func TestMallocLoadStore(t *testing.T) {
	mach := run(t, `
func main() {
  var p = malloc(64);
  store(p, 41);
  store(p + 8, load(p) + 1);
  out(load(p + 8));
}
`, 1)
	if got := mach.Output(); got[0] != 42 {
		t.Fatalf("output = %v, want [42]", got)
	}
}

func TestCompiledProgramsSurviveHAFT(t *testing.T) {
	src := `
global table[64];
global bar;

func mix(x) local {
  var h = x * 2654435761;
  return h ^ (h >> 13);
}

func main() {
  var i = 0;
  while (i < 64) {
    table[i] = mix(i);
    i = i + 1;
  }
  var sum = 0;
  i = 0;
  while (i < 64) {
    sum = sum * 31 + table[i];
    i = i + 1;
  }
  out(sum);
}
`
	m, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	nat := vm.New(m.Clone(), 1, vmQuiet())
	nat.Run(vm.ThreadSpec{Func: "main"})
	if nat.Status() != vm.StatusOK {
		t.Fatalf("native: %v", nat.Status())
	}
	for _, mode := range []core.Mode{core.ModeILR, core.ModeHAFT} {
		h := core.MustHarden(m, core.Config{Mode: mode, Opt: core.OptFaultProp, TxThreshold: 500})
		checkSSA(t, h)
		mach := vm.New(h, 1, vmQuiet())
		mach.Run(vm.ThreadSpec{Func: "main"})
		if mach.Status() != vm.StatusOK || mach.Output()[0] != nat.Output()[0] {
			t.Fatalf("%v: status=%v out=%v want %v", mode, mach.Status(), mach.Output(), nat.Output())
		}
	}
}

func TestAttrsPropagate(t *testing.T) {
	m := compileSSA(t, `
func lib() unprotected { return 1; }
func helper() local { return 2; }
func handle(x) handler { return x; }
func main() { out(lib() + helper() + handle(3)); }
`)
	if !m.Func("lib").Attrs.Unprotected || !m.Func("helper").Attrs.Local || !m.Func("handle").Attrs.EventHandler {
		t.Fatal("attributes lost")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"func main() { out(x); }", "undeclared identifier"},
		{"func main() { x = 1; }", "assignment to undeclared"},
		{"func main() { var a = 1; var a = 2; }", "already declared"},
		{"global g; func main() { var g = 1; }", "shadows a global"},
		{"func main() { nope(); }", "undeclared function"},
		{"func f(a) { return a; } func main() { f(); }", "wants 1 arguments"},
		{"func main() { out(1, 2); }", "wants 1 arguments"},
		{"global a[4]; func main() { out(a); }", "needs an index"},
		{"func main() { var v = 1; out(v[0]); }", "not a global array"},
		{"func main() { out(1 + ); }", "expected expression"},
		{"func main() { if 1 { } }", "expected ("},
		{"global g; global g;", "duplicate global"},
		{"func f() {} func f() {}", "duplicate function"},
		{"func main() { addr(1); }", "must be a global name"},
		{"func main() { out(unlock(addr(x))); }", "unknown"},
		{"func main() { @ }", "unexpected character"},
		{"func main() { out(0x); }", "bad number"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil {
			t.Errorf("Compile(%q) succeeded, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%q) error %q, want substring %q", c.src, err, c.want)
		}
	}
}

func TestGeneratedIRIsParsable(t *testing.T) {
	m := compileSSA(t, `
global g[8];
func main() {
  var i = 0;
  while (i < 8) { g[i] = i; i = i + 1; }
  out(g[7]);
}
`)
	if _, err := ir.Parse(m.String()); err != nil {
		t.Fatalf("generated IR does not round-trip: %v", err)
	}
}

// TestPortedBenchmarks compiles the .hc ports of two paper benchmarks
// and checks that HAFT preserves their output across thread counts.
func TestPortedBenchmarks(t *testing.T) {
	files, err := filepath.Glob("testdata/*.hc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no .hc testdata: %v", err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m := compileSSA(t, string(src))
			runM := func(mod *ir.Module, threads int) []uint64 {
				mach := vm.New(mod.Clone(), threads, vmQuiet())
				specs := make([]vm.ThreadSpec, threads)
				for i := range specs {
					specs[i] = vm.ThreadSpec{Func: "main"}
				}
				mach.Run(specs...)
				if mach.Status() != vm.StatusOK {
					t.Fatalf("run(%d): %v (%s)", threads, mach.Status(), mach.Stats().CrashReason)
				}
				return mach.Output()
			}
			nat2 := runM(m, 2)
			nat4 := runM(m, 4)
			if nat2[0] != nat4[0] {
				t.Fatalf("thread-count dependent checksum: %v vs %v", nat2, nat4)
			}
			h := core.MustHarden(m, core.Config{Mode: core.ModeHAFT, Opt: core.OptFaultProp, TxThreshold: 1000})
			if got := runM(h, 4); got[0] != nat4[0] {
				t.Fatalf("HAFT changed output: %v vs %v", got, nat4)
			}
		})
	}
}
