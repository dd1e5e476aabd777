// Package markov implements the continuous-time Markov chain model of
// HAFT availability from §4.2 / Figure 5 of the paper, together with a
// small dense CTMC transient solver (the role PRISM plays in the
// original work).
//
// The model has four states. The system leaves the correct state at
// the fault rate λ, split among the outcome probabilities measured by
// fault injection (Table 4), and returns to it at the appropriate
// recovery rate ρ: manual recovery for silent data corruptions,
// reboot for crashes, and transaction re-execution for
// HAFT-correctable faults.
package markov

import (
	"fmt"
	"math"
)

// State indices of the HAFT model.
const (
	StateCorrect = iota
	StateCorrupted
	StateCrashed
	StateCorrectable
	NumStates
)

// CTMC is a dense continuous-time Markov chain given by its generator
// matrix Q (rows sum to zero, off-diagonals non-negative).
type CTMC struct {
	N int
	Q [][]float64
}

// NewCTMC allocates an n-state chain with a zero generator.
func NewCTMC(n int) *CTMC {
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	return &CTMC{N: n, Q: q}
}

// SetRate sets the transition rate from state i to state j and
// maintains the diagonal.
func (c *CTMC) SetRate(i, j int, rate float64) {
	if i == j || rate < 0 {
		panic("markov: invalid rate")
	}
	c.Q[i][i] += c.Q[i][j] // remove old contribution
	c.Q[i][j] = rate
	c.Q[i][i] -= rate
}

// Validate checks generator well-formedness.
func (c *CTMC) Validate() error {
	for i := 0; i < c.N; i++ {
		sum := 0.0
		for j := 0; j < c.N; j++ {
			if i != j && c.Q[i][j] < 0 {
				return fmt.Errorf("markov: negative rate Q[%d][%d]", i, j)
			}
			sum += c.Q[i][j]
		}
		if math.Abs(sum) > 1e-9*(1+math.Abs(c.Q[i][i])) {
			return fmt.Errorf("markov: row %d sums to %g", i, sum)
		}
	}
	return nil
}

// Occupancy returns the expected fraction of [0,t] spent in each
// state: (1/t)·∫₀ᵗ π(s) ds. It uses the standard augmentation
//
//	d/ds [π, L] = [π, L] · [[Q, I], [0, 0]]
//
// so that a single matrix exponential of the 2n×2n block matrix yields
// both the transient distribution and the accumulated occupancy.
func (c *CTMC) Occupancy(p0 []float64, t float64) []float64 {
	n := c.N
	a := make([][]float64, 2*n)
	for i := range a {
		a[i] = make([]float64, 2*n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i][j] = c.Q[i][j] * t
		}
		a[i][n+i] = t
	}
	e := expm(a)
	full := make([]float64, 2*n)
	copy(full, p0)
	res := vecMat(full, e)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = res[n+i] / t
	}
	// Clamp tiny numerical negatives.
	for i := range out {
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// --- dense matrix helpers (n is tiny: 4 or 8) ---

func scale(m [][]float64, s float64) [][]float64 {
	n := len(m)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = m[i][j] * s
		}
	}
	return out
}

func matMul(a, b [][]float64) [][]float64 {
	n := len(a)
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			aik := a[i][k]
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i][j] += aik * b[k][j]
			}
		}
	}
	return out
}

func matAdd(a, b [][]float64) [][]float64 {
	n := len(a)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = a[i][j] + b[i][j]
		}
	}
	return out
}

func identity(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		out[i][i] = 1
	}
	return out
}

func vecMat(v []float64, m [][]float64) []float64 {
	n := len(m)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			out[j] += vi * m[i][j]
		}
	}
	return out
}

func infNorm(m [][]float64) float64 {
	max := 0.0
	for i := range m {
		s := 0.0
		for j := range m[i] {
			s += math.Abs(m[i][j])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// expm computes the matrix exponential by scaling and squaring with a
// Taylor core. The matrices here are tiny (≤ 8×8) but can be very
// stiff (transaction recovery at 4·10⁵/s over a 3600 s horizon), so
// the scaling step count is derived from the norm.
func expm(a [][]float64) [][]float64 {
	n := len(a)
	norm := infNorm(a)
	squarings := 0
	if norm > 0.5 {
		squarings = int(math.Ceil(math.Log2(norm / 0.5)))
		a = scale(a, 1/math.Pow(2, float64(squarings)))
	}
	// Taylor series to order 20 on the scaled matrix (‖A‖ ≤ 0.5, so
	// the truncation error is far below double precision).
	result := identity(n)
	term := identity(n)
	for k := 1; k <= 20; k++ {
		term = scale(matMul(term, a), 1/float64(k))
		result = matAdd(result, term)
	}
	for s := 0; s < squarings; s++ {
		result = matMul(result, result)
	}
	return result
}

// Params instantiates the Figure 5 model: outcome probabilities from
// fault injection (they must sum to 1) and mean recovery times in
// seconds.
type Params struct {
	// FaultRate λ in faults/second.
	FaultRate float64
	// Outcome probabilities (Table 4 rows).
	PMasked      float64
	PSDC         float64
	PCrashed     float64
	PCorrectable float64
	// Mean recovery times in seconds (ρ = 1/time).
	ManualRecoverySec float64
	RebootSec         float64
	TxRecoverySec     float64
	// DetectsCorruption distinguishes hardened architectures (ILR,
	// HAFT) from native. Figure 5 leaves the behavior of faults that
	// strike outside the correct state unspecified; to reproduce the
	// published Figure 10 curves we let faults keep arriving in the
	// corrupted state, and for architectures with integrity checking a
	// subsequent crash + reboot restores a clean state (the corruption
	// is detected and the service restarts from intact data), while
	// for native the silent corruption persists across reboots and
	// only the 6-hour manual recovery heals it.
	DetectsCorruption bool
}

// PaperRecoveryTimes fills in the recovery times used in §5.5:
// 6 hours manual recovery, 10 s reboot, 2.5 µs transaction
// re-execution.
func (p *Params) PaperRecoveryTimes() {
	p.ManualRecoverySec = 6 * 3600
	p.RebootSec = 10
	p.TxRecoverySec = 2.5e-6
}

// Build constructs the CTMC of Figure 5.
func (p Params) Build() (*CTMC, error) {
	total := p.PMasked + p.PSDC + p.PCrashed + p.PCorrectable
	if math.Abs(total-1) > 1e-6 {
		return nil, fmt.Errorf("markov: outcome probabilities sum to %g", total)
	}
	c := NewCTMC(NumStates)
	if p.PSDC > 0 {
		c.SetRate(StateCorrect, StateCorrupted, p.FaultRate*p.PSDC)
	}
	if p.PCrashed > 0 {
		c.SetRate(StateCorrect, StateCrashed, p.FaultRate*p.PCrashed)
	}
	if p.PCorrectable > 0 {
		c.SetRate(StateCorrect, StateCorrectable, p.FaultRate*p.PCorrectable)
	}
	if p.PSDC > 0 {
		c.SetRate(StateCorrupted, StateCorrect, 1/p.ManualRecoverySec)
		if p.DetectsCorruption && p.PCrashed > 0 {
			// A later fault crashes the corrupted-but-running system;
			// the reboot restores a clean state because the hardening
			// detects the stale corruption on restart.
			c.SetRate(StateCorrupted, StateCrashed, p.FaultRate*p.PCrashed)
		}
	}
	if p.PCrashed > 0 {
		c.SetRate(StateCrashed, StateCorrect, 1/p.RebootSec)
	}
	if p.PCorrectable > 0 {
		c.SetRate(StateCorrectable, StateCorrect, 1/p.TxRecoverySec)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Evaluate returns the fraction of the horizon spent available
// (correct state) and corrupted, starting from the correct state —
// the two quantities plotted in Figure 10.
func (p Params) Evaluate(horizonSec float64) (availability, corruption float64, err error) {
	c, err := p.Build()
	if err != nil {
		return 0, 0, err
	}
	p0 := make([]float64, NumStates)
	p0[StateCorrect] = 1
	occ := c.Occupancy(p0, horizonSec)
	return occ[StateCorrect], occ[StateCorrupted], nil
}
