package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads the textual IR syntax produced by Module.String and
// returns the module. The syntax is line-oriented:
//
//	global tab bytes=800 align=64
//	func main(0) frame=16 {
//	entry:
//	  v0 = frameaddr 0
//	  v1 = add #1, #2
//	  store v0, v1
//	  ret v1
//	}
//
// Comments start with ';' and run to end of line. A function names
// fewer than maxValues (1 Mi) registers. Parse verifies the result
// before returning it.
func Parse(src string) (*Module, error) {
	p := &parser{m: NewModule()}
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		line := stripComment(lines[i])
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "global "):
			if err := p.parseGlobal(line, i+1); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "func "):
			end, err := p.parseFunc(lines, i)
			if err != nil {
				return nil, err
			}
			i = end
		default:
			return nil, fmt.Errorf("ir: line %d: unexpected %q", i+1, line)
		}
	}
	if err := Verify(p.m); err != nil {
		return nil, err
	}
	return p.m, nil
}

// MustParse is Parse that panics on error; for tests and fixtures.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

type parser struct {
	m *Module
}

// maxValues bounds the registers a function may name in the text. A
// larger register id or parameter count is an error, not a request for
// a register file that large (Verify allocates one flag per register).
const maxValues = 1 << 20

func stripComment(s string) string {
	if i := strings.IndexByte(s, ';'); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

func (p *parser) parseGlobal(line string, lineno int) error {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return fmt.Errorf("ir: line %d: malformed global", lineno)
	}
	name := fields[1]
	if p.m.Global(name) != nil {
		return fmt.Errorf("ir: line %d: duplicate global %q", lineno, name)
	}
	var bytes, align int64 = 0, 8
	for _, f := range fields[2:] {
		switch {
		case strings.HasPrefix(f, "bytes="):
			v, err := strconv.ParseInt(f[6:], 10, 64)
			if err != nil || v < 0 {
				return fmt.Errorf("ir: line %d: bad bytes %q", lineno, f[6:])
			}
			bytes = v
		case strings.HasPrefix(f, "align="):
			v, err := strconv.ParseInt(f[6:], 10, 64)
			if err != nil || v < 0 {
				return fmt.Errorf("ir: line %d: bad align %q", lineno, f[6:])
			}
			align = v
		default:
			return fmt.Errorf("ir: line %d: unknown global attribute %q", lineno, f)
		}
	}
	g := p.m.AddGlobal(name, bytes)
	g.Align = align
	return nil
}

// parseFunc parses from the "func" line to the closing "}" and returns
// the index of the closing line.
func (p *parser) parseFunc(lines []string, start int) (int, error) {
	header := stripComment(lines[start])
	f, err := parseFuncHeader(header, start+1)
	if err != nil {
		return 0, err
	}
	if p.m.Func(f.Name) != nil {
		return 0, fmt.Errorf("ir: line %d: duplicate function %q", start+1, f.Name)
	}
	// First sweep: collect block labels so branch targets resolve.
	type rawInstr struct {
		text   string
		lineno int
	}
	var blocks []*Block
	blockIdx := make(map[string]int)
	var raw [][]rawInstr
	end := -1
	for i := start + 1; i < len(lines); i++ {
		line := stripComment(lines[i])
		if line == "" {
			continue
		}
		if line == "}" {
			end = i
			break
		}
		if strings.HasSuffix(line, ":") {
			name := strings.TrimSuffix(line, ":")
			if _, dup := blockIdx[name]; dup {
				return 0, fmt.Errorf("ir: line %d: duplicate block %q", i+1, name)
			}
			blockIdx[name] = len(blocks)
			blocks = append(blocks, &Block{Name: name})
			raw = append(raw, nil)
			continue
		}
		if len(blocks) == 0 {
			return 0, fmt.Errorf("ir: line %d: instruction before any block label", i+1)
		}
		raw[len(raw)-1] = append(raw[len(raw)-1], rawInstr{line, i + 1})
	}
	if end < 0 {
		return 0, fmt.Errorf("ir: line %d: unterminated function %s", start+1, f.Name)
	}
	f.Blocks = blocks
	maxVal := ValueID(f.NParams - 1)
	for bi, b := range blocks {
		for _, r := range raw[bi] {
			in, err := parseInstr(r.text, r.lineno, blockIdx)
			if err != nil {
				return 0, err
			}
			if in.Res > maxVal {
				maxVal = in.Res
			}
			b.Instrs = append(b.Instrs, in)
		}
	}
	f.NValues = int(maxVal) + 1
	p.m.AddFunc(f)
	return end, nil
}

func parseFuncHeader(header string, lineno int) (*Func, error) {
	if !strings.HasSuffix(header, "{") {
		return nil, fmt.Errorf("ir: line %d: func header must end in '{'", lineno)
	}
	header = strings.TrimSpace(strings.TrimSuffix(header, "{"))
	rest := strings.TrimPrefix(header, "func ")
	open := strings.IndexByte(rest, '(')
	closeP := strings.IndexByte(rest, ')')
	if open < 0 || closeP < open {
		return nil, fmt.Errorf("ir: line %d: malformed func header", lineno)
	}
	name := strings.TrimSpace(rest[:open])
	nparams, err := strconv.Atoi(rest[open+1 : closeP])
	if err != nil {
		return nil, fmt.Errorf("ir: line %d: bad parameter count: %v", lineno, err)
	}
	if nparams < 0 || nparams > maxValues {
		return nil, fmt.Errorf("ir: line %d: parameter count %d out of range [0,%d]", lineno, nparams, maxValues)
	}
	f := &Func{Name: name, NParams: nparams, NValues: nparams}
	for _, tok := range strings.Fields(rest[closeP+1:]) {
		switch {
		case tok == "local":
			f.Attrs.Local = true
		case tok == "unprotected":
			f.Attrs.Unprotected = true
		case tok == "handler":
			f.Attrs.EventHandler = true
		case strings.HasPrefix(tok, "frame="):
			v, err := strconv.ParseInt(tok[6:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("ir: line %d: bad frame size: %v", lineno, err)
			}
			f.FrameBytes = v
		default:
			return nil, fmt.Errorf("ir: line %d: unknown func attribute %q", lineno, tok)
		}
	}
	return f, nil
}

var opByName = func() map[string]Op {
	m := make(map[string]Op)
	for op, name := range opNames {
		if name != "" && name != "invalid" {
			m[name] = Op(op)
		}
	}
	return m
}()

var predByName = func() map[string]Pred {
	m := make(map[string]Pred)
	for p, name := range predNames {
		m[name] = Pred(p)
	}
	return m
}()

func parseInstr(text string, lineno int, blockIdx map[string]int) (Instr, error) {
	in := Instr{Res: NoValue, Line: int32(lineno)}
	fail := func(format string, args ...interface{}) (Instr, error) {
		return in, fmt.Errorf("ir: line %d: "+format, append([]interface{}{lineno}, args...)...)
	}
	// Optional "vN = " prefix.
	if eq := strings.Index(text, "="); eq > 0 && strings.HasPrefix(strings.TrimSpace(text), "v") {
		lhs := strings.TrimSpace(text[:eq])
		n, err := strconv.Atoi(strings.TrimPrefix(lhs, "v"))
		if err != nil || n < 0 || n >= maxValues {
			return fail("bad result register %q", lhs)
		}
		in.Res = ValueID(n)
		text = strings.TrimSpace(text[eq+1:])
	}
	// Trailing flag annotation.
	if i := strings.Index(text, " !"); i >= 0 {
		for _, fl := range strings.Split(strings.TrimSpace(text[i+2:]), ",") {
			switch fl {
			case "shadow":
				in.Flags |= FlagShadow
			case "check":
				in.Flags |= FlagCheck
			case "faultprop":
				in.Flags |= FlagFaultProp
			case "txhelper":
				in.Flags |= FlagTXHelper
			case "detect":
				in.Flags |= FlagDetect
			case "extern":
				in.Flags |= FlagExtern
			case "replica":
				in.Flags |= FlagReplica
			case "shadow2":
				in.Flags |= FlagShadow2
			default:
				return fail("unknown flag %q", fl)
			}
		}
		text = strings.TrimSpace(text[:i])
	}
	if strings.HasSuffix(text, " volatile") {
		in.Volatile = true
		text = strings.TrimSpace(strings.TrimSuffix(text, " volatile"))
	}
	fields := strings.Fields(strings.ReplaceAll(text, ",", " , "))
	if len(fields) == 0 {
		return fail("empty instruction")
	}
	op, ok := opByName[fields[0]]
	if !ok {
		return fail("unknown op %q", fields[0])
	}
	in.Op = op
	rest := fields[1:]
	// Op-specific leading tokens.
	switch op {
	case OpCmp:
		if len(rest) == 0 {
			return fail("cmp needs a predicate")
		}
		p, ok := predByName[rest[0]]
		if !ok {
			return fail("unknown predicate %q", rest[0])
		}
		in.Pred = p
		rest = rest[1:]
	case OpARMW:
		if len(rest) == 0 {
			return fail("armw needs a kind")
		}
		switch rest[0] {
		case "add":
			in.RMW = RMWAdd
		case "xchg":
			in.RMW = RMWXchg
		case "cas":
			in.RMW = RMWCAS
		default:
			return fail("unknown armw kind %q", rest[0])
		}
		rest = rest[1:]
	case OpCall:
		if len(rest) == 0 || !strings.HasPrefix(rest[0], "@") {
			return fail("call needs @callee")
		}
		in.Callee = strings.TrimPrefix(rest[0], "@")
		rest = rest[1:]
	case OpFrameAddr:
		if len(rest) == 0 {
			return fail("frameaddr needs an offset")
		}
		v, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return fail("bad frameaddr offset: %v", err)
		}
		in.Off = v
		rest = rest[1:]
	}
	// Remaining tokens: operands (and for phi, "[block]" tags; for
	// br/jmp, trailing block names).
	var tokens []string
	for _, t := range rest {
		if t != "," {
			tokens = append(tokens, t)
		}
	}
	switch op {
	case OpBr:
		if len(tokens) != 3 {
			return fail("br wants: cond, then, else")
		}
		o, err := parseOperand(tokens[0])
		if err != nil {
			return fail("%v", err)
		}
		t1, ok1 := blockIdx[tokens[1]]
		t2, ok2 := blockIdx[tokens[2]]
		if !ok1 || !ok2 {
			return fail("br to unknown block")
		}
		in.Args = []Operand{o}
		in.Blocks = []int{t1, t2}
		return in, nil
	case OpJmp:
		if len(tokens) != 1 {
			return fail("jmp wants a target")
		}
		t, ok := blockIdx[tokens[0]]
		if !ok {
			return fail("jmp to unknown block %q", tokens[0])
		}
		in.Blocks = []int{t}
		return in, nil
	case OpPhi:
		// Pairs: operand [block]
		if len(tokens)%2 != 0 {
			return fail("phi wants operand [block] pairs")
		}
		for i := 0; i < len(tokens); i += 2 {
			o, err := parseOperand(tokens[i])
			if err != nil {
				return fail("%v", err)
			}
			bname := strings.Trim(tokens[i+1], "[]")
			bi, ok := blockIdx[bname]
			if !ok {
				return fail("phi from unknown block %q", bname)
			}
			in.Args = append(in.Args, o)
			in.PhiPreds = append(in.PhiPreds, bi)
		}
		return in, nil
	}
	for _, t := range tokens {
		o, err := parseOperand(t)
		if err != nil {
			return fail("%v", err)
		}
		in.Args = append(in.Args, o)
	}
	return in, nil
}

func parseOperand(tok string) (Operand, error) {
	switch {
	case strings.HasPrefix(tok, "v"):
		n, err := strconv.Atoi(tok[1:])
		if err != nil || n < 0 || n >= maxValues {
			return Operand{}, fmt.Errorf("bad register %q", tok)
		}
		return Reg(ValueID(n)), nil
	case strings.HasPrefix(tok, "#"):
		body := tok[1:]
		if strings.ContainsAny(body, ".eE") && !strings.HasPrefix(body, "0x") {
			f, err := strconv.ParseFloat(body, 64)
			if err != nil {
				return Operand{}, fmt.Errorf("bad float constant %q", tok)
			}
			return ConstFloat(f), nil
		}
		n, err := strconv.ParseInt(body, 0, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("bad constant %q", tok)
		}
		return ConstInt(n), nil
	}
	return Operand{}, fmt.Errorf("bad operand %q", tok)
}
