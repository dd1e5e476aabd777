// Package sei implements the Scalable Error Isolation baseline
// (Behrens et al., NSDI'15 — reference [11] of the HAFT paper) that
// §6.1 compares against on Memcached.
//
// SEI assumes an event-driven programming model: each event handler is
// executed twice and a CRC signature is appended to every output
// message, giving end-to-end detection of data corruptions without
// hardware support. Following that design, this pass:
//
//   - duplicates the computation of every function marked as an event
//     handler (ir.FuncAttrs.EventHandler), reusing the ILR shadow-flow
//     machinery with memory-access duplication (the second "execution"
//     of the handler) — stores still happen once, as SEI buffers and
//     compares before externalizing;
//   - replaces the detection point semantics: a divergence fail-stops
//     the process (SEI provides no recovery);
//   - appends a CRC word to every externalized value, doubling the
//     per-message send cost — the overhead that dominates in a local
//     deployment, which is exactly why the paper measures SEI 30–40%
//     behind HAFT when the network cannot amortize it (§6.1).
//
// Unlike HAFT, SEI requires manual effort to adapt applications; the
// EventHandler attribute models the annotation work.
package sei

import (
	"repro/internal/ilr"
	"repro/internal/ir"
)

// Apply hardens every event-handler function of m in place and
// returns the number of functions transformed.
func Apply(m *ir.Module) int {
	n := 0
	for i, f := range m.Funcs {
		if !f.Attrs.EventHandler || f.Attrs.Unprotected {
			continue
		}
		nf := ilr.TransformFunc(f, ilr.Options{
			SharedMem: true, // duplicate loads: the handler's second execution
		})
		appendCRC(nf)
		signMessages(nf)
		m.Funcs[i] = nf
		n++
	}
	if n > 0 && m.Func("sei.crc") == nil {
		m.AddFunc(buildCRCFunc())
	}
	return n
}

// buildCRCFunc constructs the message-signature routine: a rolling
// CRC over the outgoing buffer.
func buildCRCFunc() *ir.Func {
	fb := ir.NewFuncBuilder("sei.crc", 2) // buf, nbytes
	entry := fb.Block("entry")
	loop := fb.Block("loop")
	body := fb.Block("body")
	done := fb.Block("done")
	fb.SetBlock(entry)
	nwords := fb.Shr(ir.Reg(fb.Param(1)), ir.ConstInt(3))
	fb.Jmp(loop)
	fb.SetBlock(loop)
	i := fb.Phi([]int{entry, body}, []ir.Operand{ir.ConstInt(0), ir.ConstInt(0)})
	crc := fb.Phi([]int{entry, body}, []ir.Operand{ir.ConstUint(0xFFFFFFFF), ir.ConstUint(0xFFFFFFFF)})
	c := fb.Cmp(ir.PredLT, ir.Reg(i), ir.Reg(nwords))
	fb.Br(ir.Reg(c), body, done)
	fb.SetBlock(body)
	off := fb.Mul(ir.Reg(i), ir.ConstInt(8))
	a := fb.Add(ir.Reg(fb.Param(0)), ir.Reg(off))
	v := fb.Load(ir.Reg(a))
	m1 := fb.Mul(ir.Reg(crc), ir.ConstUint(0x82F63B78))
	x1 := fb.Xor(ir.Reg(m1), ir.Reg(v))
	inext := fb.Add(ir.Reg(i), ir.ConstInt(1))
	fb.Jmp(loop)
	fb.SetBlock(done)
	fb.Ret(ir.Reg(crc))
	f := fb.Done()
	// Patch the loop-carried phis.
	f.Blocks[loop].Instrs[0].Args[1] = ir.Reg(inext)
	f.Blocks[loop].Instrs[1].Args[1] = ir.Reg(x1)
	f.Attrs.Local = true
	return f
}

// signMessages instruments batched sends: every sys.write(buf, n) is
// preceded by a CRC computation over the buffer and followed by the
// signature send — SEI's end-to-end message protection.
func signMessages(f *ir.Func) {
	for _, b := range f.Blocks {
		out := make([]ir.Instr, 0, len(b.Instrs))
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op == ir.OpCall && in.Callee == "sys.write" && len(in.Args) == 2 {
				crc := f.NewValue()
				out = append(out,
					ir.Instr{Op: ir.OpCall, Res: crc, Callee: "sei.crc",
						Args: append([]ir.Operand(nil), in.Args...)},
					in,
					ir.Instr{Op: ir.OpCall, Res: ir.NoValue, Callee: "sys.write",
						Args: []ir.Operand{ir.Reg(crc), ir.ConstInt(8)}})
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
}

// appendCRC inserts, after every out instruction, a second out that
// externalizes a signature of the value (the CRC appended to each
// message). The signature is computed from the shadow copy so that a
// corruption in either flow breaks the pair at the receiver.
func appendCRC(f *ir.Func) {
	for _, b := range f.Blocks {
		out := make([]ir.Instr, 0, len(b.Instrs))
		for i := range b.Instrs {
			in := b.Instrs[i]
			out = append(out, in)
			if in.Op != ir.OpOut {
				continue
			}
			crc := f.NewValue()
			out = append(out,
				ir.Instr{
					Op: ir.OpMul, Res: crc,
					Args:  []ir.Operand{in.Args[0], ir.ConstUint(0x82F63B78)},
					Flags: ir.FlagShadow,
				},
				ir.Instr{
					Op: ir.OpOut, Res: ir.NoValue,
					Args:  []ir.Operand{ir.Reg(crc)},
					Flags: ir.FlagShadow,
				})
		}
		b.Instrs = out
	}
}
