package lang

// A reference interpreter for the source language, independent of the
// IR pipeline. It executes the AST directly with Go-level semantics
// and exists purely as a differential-testing oracle: for any program
// the interpreter can run (single-threaded, no raw memory builtins),
// the compiled IR executed on the machine simulator must produce the
// same output — before and after hardening.

import (
	"fmt"
)

// hangMargin is the dynamic-instruction budget of a compiled run in
// the differential tests: a run still going after it counts as hung. It
// is about 16x the 59,696 instructions the largest terminating TMR run
// of the fuzz driver's generated programs takes; fuzzCheck fails a
// terminating program that takes more than a quarter of it, so the
// margin cannot erode unnoticed as the generator grows.
const hangMargin = 1_000_000

// InterpLimit bounds interpreted steps so runaway loops fail fast. It
// is hangMargin: a step costs a compiled run more than one instruction
// (1.15 or more on every terminating program of the fuzz driver), so a
// program the interpreter gives up on runs out of a compiled run's
// budget too.
const InterpLimit = hangMargin

// Interp runs a program's main function single-threaded and returns
// everything it passed to out().
func Interp(prog *Program) ([]uint64, error) {
	in := &interp{
		globals: map[string][]uint64{},
		funcs:   map[string]*FuncDecl{},
	}
	for _, g := range prog.Globals {
		in.globals[g.Name] = make([]uint64, g.Words)
	}
	for _, f := range prog.Funcs {
		in.funcs[f.Name] = f
	}
	main, ok := in.funcs["main"]
	if !ok {
		return nil, fmt.Errorf("lang: no main function")
	}
	if len(main.Params) != 0 {
		return nil, fmt.Errorf("lang: main must take no parameters")
	}
	_, err := in.call(main, nil)
	return in.output, err
}

type interp struct {
	globals map[string][]uint64
	funcs   map[string]*FuncDecl
	output  []uint64
	steps   int
}

// returnValue carries early returns up the statement walk.
type returnValue struct{ v uint64 }

func (in *interp) tick() error {
	in.steps++
	if in.steps > InterpLimit {
		return fmt.Errorf("lang: interpreter step limit exceeded")
	}
	return nil
}

// call runs a function body and returns its value.
func (in *interp) call(f *FuncDecl, args []uint64) (uint64, error) {
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("lang: %s arity", f.Name)
	}
	env := map[string]uint64{}
	for i, p := range f.Params {
		env[p] = args[i]
	}
	ret, err := in.execBlock(f.Body, env)
	if err != nil {
		return 0, err
	}
	if ret != nil {
		return ret.v, nil
	}
	return 0, nil
}

func (in *interp) execBlock(b *Block, env map[string]uint64) (*returnValue, error) {
	for _, s := range b.Stmts {
		ret, err := in.execStmt(s, env)
		if err != nil || ret != nil {
			return ret, err
		}
	}
	return nil, nil
}

func (in *interp) execStmt(s Stmt, env map[string]uint64) (*returnValue, error) {
	if err := in.tick(); err != nil {
		return nil, err
	}
	switch st := s.(type) {
	case *VarStmt:
		v, err := in.eval(st.Init, env)
		if err != nil {
			return nil, err
		}
		env[st.Name] = v
		return nil, nil

	case *AssignStmt:
		v, err := in.eval(st.Value, env)
		if err != nil {
			return nil, err
		}
		if _, isLocal := env[st.Target.Name]; isLocal && st.Target.Index == nil {
			env[st.Target.Name] = v
			return nil, nil
		}
		arr, isGlobal := in.globals[st.Target.Name]
		if !isGlobal {
			return nil, fmt.Errorf("lang: line %d: assignment to undeclared %q", st.Line, st.Target.Name)
		}
		idx := uint64(0)
		if st.Target.Index != nil {
			var err error
			idx, err = in.eval(st.Target.Index, env)
			if err != nil {
				return nil, err
			}
		}
		if idx >= uint64(len(arr)) {
			return nil, fmt.Errorf("lang: line %d: index %d out of range for %q", st.Line, idx, st.Target.Name)
		}
		arr[idx] = v
		return nil, nil

	case *IfStmt:
		c, err := in.eval(st.Cond, env)
		if err != nil {
			return nil, err
		}
		if c != 0 {
			return in.execBlock(st.Then, env)
		}
		if st.Else != nil {
			return in.execBlock(st.Else, env)
		}
		return nil, nil

	case *WhileStmt:
		for {
			if err := in.tick(); err != nil {
				return nil, err
			}
			c, err := in.eval(st.Cond, env)
			if err != nil {
				return nil, err
			}
			if c == 0 {
				return nil, nil
			}
			ret, err := in.execBlock(st.Body, env)
			if err != nil || ret != nil {
				return ret, err
			}
		}

	case *ReturnStmt:
		if st.Value == nil {
			return &returnValue{}, nil
		}
		v, err := in.eval(st.Value, env)
		if err != nil {
			return nil, err
		}
		return &returnValue{v: v}, nil

	case *ExprStmt:
		_, err := in.evalMaybeVoid(st.X, env)
		return nil, err
	}
	return nil, fmt.Errorf("lang: unknown statement %T", s)
}

func (in *interp) eval(e Expr, env map[string]uint64) (uint64, error) {
	v, err := in.evalMaybeVoid(e, env)
	if err != nil {
		return 0, err
	}
	if v == nil {
		return 0, fmt.Errorf("lang: void call used as value")
	}
	return *v, nil
}

func (in *interp) evalMaybeVoid(e Expr, env map[string]uint64) (*uint64, error) {
	some := func(v uint64) (*uint64, error) { return &v, nil }
	if err := in.tick(); err != nil {
		return nil, err
	}
	switch ex := e.(type) {
	case *NumExpr:
		return some(ex.Value)
	case *IdentExpr:
		if v, isLocal := env[ex.Name]; isLocal {
			return some(v)
		}
		if arr, isGlobal := in.globals[ex.Name]; isGlobal {
			if len(arr) != 1 {
				return nil, fmt.Errorf("lang: line %d: array %q needs an index", ex.Line, ex.Name)
			}
			return some(arr[0])
		}
		return nil, fmt.Errorf("lang: line %d: undeclared %q", ex.Line, ex.Name)
	case *IndexExpr:
		arr, isGlobal := in.globals[ex.Name]
		if !isGlobal {
			return nil, fmt.Errorf("lang: line %d: %q is not a global array", ex.Line, ex.Name)
		}
		idx, err := in.eval(ex.Index, env)
		if err != nil {
			return nil, err
		}
		if idx >= uint64(len(arr)) {
			return nil, fmt.Errorf("lang: line %d: index %d out of range for %q", ex.Line, idx, ex.Name)
		}
		return some(arr[idx])
	case *UnaryExpr:
		x, err := in.eval(ex.X, env)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "-":
			return some(-x)
		case "~":
			return some(^x)
		case "!":
			if x == 0 {
				return some(1)
			}
			return some(0)
		}
		return nil, fmt.Errorf("lang: unknown unary %q", ex.Op)
	case *BinaryExpr:
		l, err := in.eval(ex.L, env)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(ex.R, env)
		if err != nil {
			return nil, err
		}
		return in.binary(ex, l, r)
	case *CallExpr:
		return in.evalCall(ex, env)
	}
	return nil, fmt.Errorf("lang: unknown expression %T", e)
}

func (in *interp) binary(ex *BinaryExpr, l, r uint64) (*uint64, error) {
	some := func(v uint64) (*uint64, error) { return &v, nil }
	b2u := func(b bool) (*uint64, error) {
		if b {
			return some(1)
		}
		return some(0)
	}
	switch ex.Op {
	case "+":
		return some(l + r)
	case "-":
		return some(l - r)
	case "*":
		return some(l * r)
	case "/":
		if r == 0 {
			return nil, fmt.Errorf("lang: line %d: division by zero", ex.Line)
		}
		return some(uint64(int64(l) / int64(r)))
	case "%":
		if r == 0 {
			return nil, fmt.Errorf("lang: line %d: remainder by zero", ex.Line)
		}
		return some(uint64(int64(l) % int64(r)))
	case "&":
		return some(l & r)
	case "|":
		return some(l | r)
	case "^":
		return some(l ^ r)
	case "<<":
		return some(l << (r & 63))
	case ">>":
		return some(l >> (r & 63))
	case "==":
		return b2u(l == r)
	case "!=":
		return b2u(l != r)
	case "<":
		return b2u(int64(l) < int64(r))
	case "<=":
		return b2u(int64(l) <= int64(r))
	case ">":
		return b2u(int64(l) > int64(r))
	case ">=":
		return b2u(int64(l) >= int64(r))
	case "&&":
		return b2u(l != 0 && r != 0)
	case "||":
		return b2u(l != 0 || r != 0)
	}
	return nil, fmt.Errorf("lang: unknown operator %q", ex.Op)
}

func (in *interp) evalCall(ex *CallExpr, env map[string]uint64) (*uint64, error) {
	some := func(v uint64) (*uint64, error) { return &v, nil }
	switch ex.Name {
	case "out":
		if len(ex.Args) != 1 {
			return nil, fmt.Errorf("lang: out arity")
		}
		v, err := in.eval(ex.Args[0], env)
		if err != nil {
			return nil, err
		}
		in.output = append(in.output, v)
		return nil, nil
	case "thread_id":
		return some(0)
	case "thread_count":
		return some(1)
	case "barrier":
		// Single-threaded oracle: a barrier of one passes through.
		if len(ex.Args) != 2 {
			return nil, fmt.Errorf("lang: barrier arity")
		}
		for _, a := range ex.Args {
			if _, err := in.eval(a, env); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case "lock", "unlock":
		if len(ex.Args) != 1 {
			return nil, fmt.Errorf("lang: lock arity")
		}
		if _, err := in.eval(ex.Args[0], env); err != nil {
			return nil, err
		}
		return nil, nil
	case "addr", "atomic_add", "atomic_load", "atomic_store", "malloc", "load", "store":
		// Raw-memory builtins depend on the machine's address space;
		// the oracle does not model them.
		return nil, fmt.Errorf("lang: interpreter does not support %s", ex.Name)
	}
	f, ok := in.funcs[ex.Name]
	if !ok {
		return nil, fmt.Errorf("lang: line %d: undeclared function %q", ex.Line, ex.Name)
	}
	var args []uint64
	for _, a := range ex.Args {
		v, err := in.eval(a, env)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	v, err := in.call(f, args)
	if err != nil {
		return nil, err
	}
	return some(v)
}
