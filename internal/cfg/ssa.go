package cfg

import (
	"fmt"

	"repro/internal/ir"
)

// VerifySSA checks the full SSA dominance property on a function:
// every use of a register is dominated by its definition. For phi
// nodes the incoming value must be defined in a block dominating the
// corresponding predecessor (the value must be available at the end
// of that edge). Unreachable blocks are ignored.
//
// ir.Verify enforces the cheaper structural invariants on every pass
// output; VerifySSA is the strict mode the test suite runs over all
// workloads and hardened modules.
func VerifySSA(f *ir.Func) error {
	g := New(f)
	type def struct {
		block int
		index int
	}
	defs := make([]def, f.NValues)
	for i := range defs {
		defs[i] = def{block: -1}
	}
	for p := 0; p < f.NParams; p++ {
		defs[p] = def{block: 0, index: -1} // live from function entry
	}
	for bi, b := range f.Blocks {
		if !g.Reachable(bi) {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Res == ir.NoValue {
				continue
			}
			if defs[in.Res].block != -1 {
				return fmt.Errorf("cfg: %s: v%d defined twice (blocks %s and %s)",
					f.Name, in.Res, f.Blocks[defs[in.Res].block].Name, b.Name)
			}
			defs[in.Res] = def{block: bi, index: i}
		}
	}
	useErr := func(b *ir.Block, i int, v ir.ValueID, why string) error {
		return fmt.Errorf("cfg: %s/%s[%d]: use of v%d %s", f.Name, b.Name, i, v, why)
	}
	for bi, b := range f.Blocks {
		if !g.Reachable(bi) {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpPhi {
				for k, a := range in.Args {
					if a.IsConst {
						continue
					}
					d := defs[a.Reg]
					if d.block == -1 {
						return useErr(b, i, a.Reg, "never defined")
					}
					pred := in.PhiPreds[k]
					if !g.Reachable(pred) {
						continue // edge can never be taken
					}
					if !g.Dominates(d.block, pred) {
						return useErr(b, i, a.Reg,
							fmt.Sprintf("via edge from %s not dominated by its definition in %s",
								f.Blocks[pred].Name, f.Blocks[d.block].Name))
					}
				}
				continue
			}
			for _, a := range in.Args {
				if a.IsConst {
					continue
				}
				d := defs[a.Reg]
				if d.block == -1 {
					return useErr(b, i, a.Reg, "never defined")
				}
				if d.block == bi {
					if d.index >= i {
						return useErr(b, i, a.Reg, "before its definition in the same block")
					}
					continue
				}
				if !g.Dominates(d.block, bi) {
					return useErr(b, i, a.Reg,
						fmt.Sprintf("not dominated by its definition in %s", f.Blocks[d.block].Name))
				}
			}
		}
	}
	return nil
}
