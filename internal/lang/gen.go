package lang

import (
	"fmt"

	"repro/internal/ir"
)

// Compile parses and compiles a source file to a verified IR module.
// Locals live in frame slots (the -O0 model), so the language needs no
// SSA construction; run the optimizer (internal/opt) or HAFT pipeline
// on the result as usual.
func Compile(src string) (*ir.Module, error) {
	prog, err := ParseProgram(src)
	if err != nil {
		return nil, err
	}
	return CompileProgram(prog)
}

// builtinArity maps builtin names to their argument counts.
var builtinArity = map[string]int{
	"out": 1, "thread_id": 0, "thread_count": 0, "barrier": 2,
	"lock": 1, "unlock": 1,
	"atomic_add": 2, "atomic_load": 1, "atomic_store": 2,
	"malloc": 1, "load": 1, "store": 2,
	// addr is special-cased (1 or 2 args).
}

// CompileProgram lowers a parsed program.
func CompileProgram(prog *Program) (*ir.Module, error) {
	m := ir.NewModule()
	globals := map[string]*GlobalDecl{}
	for _, g := range prog.Globals {
		if _, dup := globals[g.Name]; dup {
			return nil, fmt.Errorf("lang: line %d: duplicate global %q", g.Line, g.Name)
		}
		globals[g.Name] = g
		gg := m.AddGlobal(g.Name, g.Words*8)
		gg.Align = 64
	}
	m.Layout()

	funcs := map[string]*FuncDecl{}
	for _, f := range prog.Funcs {
		if _, dup := funcs[f.Name]; dup {
			return nil, fmt.Errorf("lang: line %d: duplicate function %q", f.Line, f.Name)
		}
		if _, isG := globals[f.Name]; isG {
			return nil, fmt.Errorf("lang: line %d: %q is both global and function", f.Line, f.Name)
		}
		funcs[f.Name] = f
	}
	for _, f := range prog.Funcs {
		g := &generator{m: m, globals: globals, funcs: funcs}
		irf, err := g.lowerFunc(f)
		if err != nil {
			return nil, err
		}
		m.AddFunc(irf)
	}
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("lang: internal error: generated IR invalid: %w", err)
	}
	return m, nil
}

// generator lowers one function.
type generator struct {
	m       *ir.Module
	globals map[string]*GlobalDecl
	funcs   map[string]*FuncDecl
	fb      *ir.FuncBuilder
	slots   map[string]int64 // local name -> frame offset
	blk     int              // unique block-name counter
}

func (g *generator) block(prefix string) int {
	g.blk++
	return g.fb.Block(fmt.Sprintf("%s%d", prefix, g.blk))
}

func (g *generator) lowerFunc(f *FuncDecl) (*ir.Func, error) {
	g.fb = ir.NewFuncBuilder(f.Name, len(f.Params))
	g.slots = map[string]int64{}
	entry := g.fb.Block("entry")
	g.fb.SetBlock(entry)
	// Spill parameters into frame slots so they are mutable like
	// ordinary locals.
	for i, name := range f.Params {
		if _, dup := g.slots[name]; dup {
			return nil, fmt.Errorf("lang: line %d: duplicate parameter %q", f.Line, name)
		}
		off := g.fb.Alloca(8)
		g.slots[name] = off
		a := g.fb.FrameAddr(off)
		g.fb.Store(ir.Reg(a), ir.Reg(g.fb.Param(i)))
	}
	if err := g.lowerBlock(f.Body); err != nil {
		return nil, err
	}
	// Fall-through return.
	g.fb.Ret()
	irf := g.fb.Done()
	irf.Attrs.Local = f.Local
	irf.Attrs.Unprotected = f.Unprotected
	irf.Attrs.EventHandler = f.Handler
	return irf, nil
}

func (g *generator) lowerBlock(b *Block) error {
	for _, s := range b.Stmts {
		if err := g.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) lowerStmt(s Stmt) error {
	// Stamp the statement's source line onto everything it lowers to,
	// so the obs profiler can attribute dynamic cost per line.
	switch st := s.(type) {
	case *VarStmt:
		g.fb.SetLine(st.Line)
	case *AssignStmt:
		g.fb.SetLine(st.Line)
	case *IfStmt:
		g.fb.SetLine(st.Line)
	case *WhileStmt:
		g.fb.SetLine(st.Line)
	case *ReturnStmt:
		g.fb.SetLine(st.Line)
	case *ExprStmt:
		g.fb.SetLine(st.Line)
	}
	switch st := s.(type) {
	case *VarStmt:
		if _, dup := g.slots[st.Name]; dup {
			return fmt.Errorf("lang: line %d: %q already declared", st.Line, st.Name)
		}
		if _, isG := g.globals[st.Name]; isG {
			return fmt.Errorf("lang: line %d: %q shadows a global", st.Line, st.Name)
		}
		v, err := g.lowerExpr(st.Init)
		if err != nil {
			return err
		}
		off := g.fb.Alloca(8)
		g.slots[st.Name] = off
		a := g.fb.FrameAddr(off)
		g.fb.Store(ir.Reg(a), v)
		return nil

	case *AssignStmt:
		v, err := g.lowerExpr(st.Value)
		if err != nil {
			return err
		}
		addr, err := g.lvalueAddr(st.Target)
		if err != nil {
			return err
		}
		g.fb.Store(addr, v)
		return nil

	case *IfStmt:
		cond, err := g.lowerExpr(st.Cond)
		if err != nil {
			return err
		}
		then := g.block("then")
		join := g.block("fi")
		els := join
		if st.Else != nil {
			els = g.block("else")
		}
		g.fb.Br(cond, then, els)
		g.fb.SetBlock(then)
		if err := g.lowerBlock(st.Then); err != nil {
			return err
		}
		g.fb.Jmp(join)
		if st.Else != nil {
			g.fb.SetBlock(els)
			if err := g.lowerBlock(st.Else); err != nil {
				return err
			}
			g.fb.Jmp(join)
		}
		g.fb.SetBlock(join)
		return nil

	case *WhileStmt:
		head := g.block("while")
		body := g.block("do")
		exit := g.block("od")
		g.fb.Jmp(head)
		g.fb.SetBlock(head)
		cond, err := g.lowerExpr(st.Cond)
		if err != nil {
			return err
		}
		g.fb.Br(cond, body, exit)
		g.fb.SetBlock(body)
		if err := g.lowerBlock(st.Body); err != nil {
			return err
		}
		g.fb.Jmp(head)
		g.fb.SetBlock(exit)
		return nil

	case *ReturnStmt:
		if st.Value != nil {
			v, err := g.lowerExpr(st.Value)
			if err != nil {
				return err
			}
			g.fb.Ret(v)
		} else {
			g.fb.Ret()
		}
		// Statements after a return land in an unreachable block that
		// still needs a terminator; the trailing Ret in lowerFunc (or
		// the next statement's control flow) closes it.
		g.fb.SetBlock(g.block("unreach"))
		return nil

	case *ExprStmt:
		_, err := g.lowerExprMaybeVoid(st.X)
		return err
	}
	return fmt.Errorf("lang: unknown statement %T", s)
}

// lvalueAddr computes the address operand of an assignable location.
func (g *generator) lvalueAddr(lv *LValue) (ir.Operand, error) {
	if off, isLocal := g.slots[lv.Name]; isLocal {
		if lv.Index != nil {
			return ir.Operand{}, fmt.Errorf("lang: line %d: local %q is not an array", lv.Line, lv.Name)
		}
		return ir.Reg(g.fb.FrameAddr(off)), nil
	}
	gd, isGlobal := g.globals[lv.Name]
	if !isGlobal {
		return ir.Operand{}, fmt.Errorf("lang: line %d: assignment to undeclared %q", lv.Line, lv.Name)
	}
	base := g.m.Global(lv.Name).Addr
	if lv.Index == nil {
		if gd.Words != 1 {
			return ir.Operand{}, fmt.Errorf("lang: line %d: array %q needs an index", lv.Line, lv.Name)
		}
		return ir.ConstUint(base), nil
	}
	idx, err := g.lowerExpr(lv.Index)
	if err != nil {
		return ir.Operand{}, err
	}
	off := g.fb.Shl(idx, ir.ConstInt(3))
	return ir.Reg(g.fb.Add(ir.ConstUint(base), ir.Reg(off))), nil
}

// lowerExpr lowers an expression to a value operand.
func (g *generator) lowerExpr(e Expr) (ir.Operand, error) {
	v, err := g.lowerExprMaybeVoid(e)
	if err != nil {
		return ir.Operand{}, err
	}
	if v == nil {
		return ir.Operand{}, fmt.Errorf("lang: void call used as a value")
	}
	return *v, nil
}

// lowerExprMaybeVoid lowers an expression; a nil result means a void
// builtin was called in statement position.
func (g *generator) lowerExprMaybeVoid(e Expr) (*ir.Operand, error) {
	some := func(o ir.Operand) (*ir.Operand, error) { return &o, nil }
	switch ex := e.(type) {
	case *NumExpr:
		return some(ir.ConstUint(ex.Value))

	case *IdentExpr:
		if off, isLocal := g.slots[ex.Name]; isLocal {
			a := g.fb.FrameAddr(off)
			return some(ir.Reg(g.fb.Load(ir.Reg(a))))
		}
		if gd, isGlobal := g.globals[ex.Name]; isGlobal {
			if gd.Words != 1 {
				return nil, fmt.Errorf("lang: line %d: array %q needs an index", ex.Line, ex.Name)
			}
			return some(ir.Reg(g.fb.Load(ir.ConstUint(g.m.Global(ex.Name).Addr))))
		}
		return nil, fmt.Errorf("lang: line %d: undeclared identifier %q", ex.Line, ex.Name)

	case *IndexExpr:
		gd, isGlobal := g.globals[ex.Name]
		if !isGlobal {
			return nil, fmt.Errorf("lang: line %d: %q is not a global array", ex.Line, ex.Name)
		}
		_ = gd
		idx, err := g.lowerExpr(ex.Index)
		if err != nil {
			return nil, err
		}
		off := g.fb.Shl(idx, ir.ConstInt(3))
		a := g.fb.Add(ir.ConstUint(g.m.Global(ex.Name).Addr), ir.Reg(off))
		return some(ir.Reg(g.fb.Load(ir.Reg(a))))

	case *UnaryExpr:
		x, err := g.lowerExpr(ex.X)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "-":
			return some(ir.Reg(g.fb.Sub(ir.ConstInt(0), x)))
		case "~":
			return some(ir.Reg(g.fb.Not(x)))
		case "!":
			return some(ir.Reg(g.fb.Cmp(ir.PredEQ, x, ir.ConstInt(0))))
		}
		return nil, fmt.Errorf("lang: line %d: unknown unary %q", ex.Line, ex.Op)

	case *BinaryExpr:
		return g.lowerBinary(ex)

	case *CallExpr:
		return g.lowerCall(ex)
	}
	return nil, fmt.Errorf("lang: unknown expression %T", e)
}

var cmpPreds = map[string]ir.Pred{
	"==": ir.PredEQ, "!=": ir.PredNE,
	"<": ir.PredLT, "<=": ir.PredLE, ">": ir.PredGT, ">=": ir.PredGE,
}

func (g *generator) lowerBinary(ex *BinaryExpr) (*ir.Operand, error) {
	some := func(o ir.Operand) (*ir.Operand, error) { return &o, nil }
	l, err := g.lowerExpr(ex.L)
	if err != nil {
		return nil, err
	}
	r, err := g.lowerExpr(ex.R)
	if err != nil {
		return nil, err
	}
	if p, isCmp := cmpPreds[ex.Op]; isCmp {
		return some(ir.Reg(g.fb.Cmp(p, l, r)))
	}
	switch ex.Op {
	case "+":
		return some(ir.Reg(g.fb.Add(l, r)))
	case "-":
		return some(ir.Reg(g.fb.Sub(l, r)))
	case "*":
		return some(ir.Reg(g.fb.Mul(l, r)))
	case "/":
		return some(ir.Reg(g.fb.Div(l, r)))
	case "%":
		return some(ir.Reg(g.fb.Rem(l, r)))
	case "&":
		return some(ir.Reg(g.fb.And(l, r)))
	case "|":
		return some(ir.Reg(g.fb.Or(l, r)))
	case "^":
		return some(ir.Reg(g.fb.Xor(l, r)))
	case "<<":
		return some(ir.Reg(g.fb.Shl(l, r)))
	case ">>":
		return some(ir.Reg(g.fb.Shr(l, r)))
	case "&&", "||":
		// Both operands are evaluated (no short circuit): the logical
		// result is computed from the truth values.
		lt := g.fb.Cmp(ir.PredNE, l, ir.ConstInt(0))
		rt := g.fb.Cmp(ir.PredNE, r, ir.ConstInt(0))
		if ex.Op == "&&" {
			return some(ir.Reg(g.fb.And(ir.Reg(lt), ir.Reg(rt))))
		}
		return some(ir.Reg(g.fb.Or(ir.Reg(lt), ir.Reg(rt))))
	}
	return nil, fmt.Errorf("lang: line %d: unknown operator %q", ex.Line, ex.Op)
}

func (g *generator) lowerCall(ex *CallExpr) (*ir.Operand, error) {
	some := func(o ir.Operand) (*ir.Operand, error) { return &o, nil }
	// addr(global[, index]) is special: it does not evaluate its first
	// argument.
	if ex.Name == "addr" {
		if len(ex.Args) < 1 || len(ex.Args) > 2 {
			return nil, fmt.Errorf("lang: line %d: addr wants addr(global) or addr(global, index)", ex.Line)
		}
		id, ok := ex.Args[0].(*IdentExpr)
		if !ok {
			return nil, fmt.Errorf("lang: line %d: addr's first argument must be a global name", ex.Line)
		}
		if _, isG := g.globals[id.Name]; !isG {
			return nil, fmt.Errorf("lang: line %d: unknown global %q", ex.Line, id.Name)
		}
		base := g.m.Global(id.Name).Addr
		if len(ex.Args) == 1 {
			return some(ir.ConstUint(base))
		}
		idx, err := g.lowerExpr(ex.Args[1])
		if err != nil {
			return nil, err
		}
		off := g.fb.Shl(idx, ir.ConstInt(3))
		return some(ir.Reg(g.fb.Add(ir.ConstUint(base), ir.Reg(off))))
	}

	var args []ir.Operand
	for _, a := range ex.Args {
		v, err := g.lowerExpr(a)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	if want, isBuiltin := builtinArity[ex.Name]; isBuiltin {
		if len(args) != want {
			return nil, fmt.Errorf("lang: line %d: %s wants %d arguments, got %d",
				ex.Line, ex.Name, want, len(args))
		}
		switch ex.Name {
		case "out":
			g.fb.Out(args[0])
			return nil, nil
		case "thread_id":
			return some(ir.Reg(g.fb.Call("thread.id")))
		case "thread_count":
			return some(ir.Reg(g.fb.Call("thread.count")))
		case "barrier":
			g.fb.CallVoid("barrier.wait", args...)
			return nil, nil
		case "lock":
			g.fb.CallVoid("lock.acquire", args[0])
			return nil, nil
		case "unlock":
			g.fb.CallVoid("lock.release", args[0])
			return nil, nil
		case "atomic_add":
			return some(ir.Reg(g.fb.ARMW(ir.RMWAdd, args[0], args[1])))
		case "atomic_load":
			return some(ir.Reg(g.fb.ALoad(args[0])))
		case "atomic_store":
			g.fb.AStore(args[0], args[1])
			return nil, nil
		case "malloc":
			return some(ir.Reg(g.fb.Call("malloc", args[0])))
		case "load":
			return some(ir.Reg(g.fb.Load(args[0])))
		case "store":
			g.fb.Store(args[0], args[1])
			return nil, nil
		}
	}
	callee, isFunc := g.funcs[ex.Name]
	if !isFunc {
		return nil, fmt.Errorf("lang: line %d: call to undeclared function %q", ex.Line, ex.Name)
	}
	if len(args) != len(callee.Params) {
		return nil, fmt.Errorf("lang: line %d: %s wants %d arguments, got %d",
			ex.Line, ex.Name, len(callee.Params), len(args))
	}
	return some(ir.Reg(g.fb.Call(ex.Name, args...)))
}
