package ir

import (
	"fmt"
	"strings"
)

// Fprint formats a function in the textual IR syntax accepted by
// Parse. The format mirrors the simplified LLVM notation used in the
// paper's figures.
func (f *Func) String() string {
	var sb strings.Builder
	attrs := ""
	if f.Attrs.Local {
		attrs += " local"
	}
	if f.Attrs.Unprotected {
		attrs += " unprotected"
	}
	if f.Attrs.EventHandler {
		attrs += " handler"
	}
	fmt.Fprintf(&sb, "func %s(%d)%s frame=%d {\n", f.Name, f.NParams, attrs, f.FrameBytes)
	for bi, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s: ; block %d\n", b.Name, bi)
		for i := range b.Instrs {
			sb.WriteString("  ")
			sb.WriteString(formatInstr(f, &b.Instrs[i]))
			sb.WriteString("\n")
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// String formats the whole module.
func (m *Module) String() string {
	var sb strings.Builder
	for _, g := range m.Globals {
		fmt.Fprintf(&sb, "global %s bytes=%d align=%d\n", g.Name, g.Bytes, g.Align)
	}
	for _, f := range m.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

func formatInstr(f *Func, in *Instr) string {
	var sb strings.Builder
	if in.Res != NoValue {
		fmt.Fprintf(&sb, "v%d = ", in.Res)
	}
	sb.WriteString(in.Op.String())
	switch in.Op {
	case OpCmp:
		sb.WriteString(" " + in.Pred.String())
	case OpARMW:
		switch in.RMW {
		case RMWAdd:
			sb.WriteString(" add")
		case RMWXchg:
			sb.WriteString(" xchg")
		case RMWCAS:
			sb.WriteString(" cas")
		}
	case OpCall:
		sb.WriteString(" @" + in.Callee)
	case OpFrameAddr:
		fmt.Fprintf(&sb, " %d", in.Off)
	}
	for ai, a := range in.Args {
		if ai == 0 {
			sb.WriteString(" ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
		if in.Op == OpPhi && ai < len(in.PhiPreds) {
			fmt.Fprintf(&sb, " [%s]", f.Blocks[in.PhiPreds[ai]].Name)
		}
	}
	switch in.Op {
	case OpBr:
		fmt.Fprintf(&sb, ", %s, %s", f.Blocks[in.Blocks[0]].Name, f.Blocks[in.Blocks[1]].Name)
	case OpJmp:
		fmt.Fprintf(&sb, " %s", f.Blocks[in.Blocks[0]].Name)
	}
	if in.Volatile {
		sb.WriteString(" volatile")
	}
	if in.Flags != 0 {
		var fl []string
		if in.HasFlag(FlagShadow) {
			fl = append(fl, "shadow")
		}
		if in.HasFlag(FlagCheck) {
			fl = append(fl, "check")
		}
		if in.HasFlag(FlagFaultProp) {
			fl = append(fl, "faultprop")
		}
		if in.HasFlag(FlagTXHelper) {
			fl = append(fl, "txhelper")
		}
		if in.HasFlag(FlagDetect) {
			fl = append(fl, "detect")
		}
		if in.HasFlag(FlagExtern) {
			fl = append(fl, "extern")
		}
		if in.HasFlag(FlagReplica) {
			fl = append(fl, "replica")
		}
		if in.HasFlag(FlagShadow2) {
			fl = append(fl, "shadow2")
		}
		sb.WriteString(" !" + strings.Join(fl, ",")) //nolint
	}
	return sb.String()
}
