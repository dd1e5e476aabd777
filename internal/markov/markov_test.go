package markov

import (
	"math"
	"testing"
	"testing/quick"
)

func paperParams(rate float64, masked, sdc, crashed, correctable float64) Params {
	p := Params{
		FaultRate: rate,
		PMasked:   masked, PSDC: sdc, PCrashed: crashed, PCorrectable: correctable,
	}
	p.PaperRecoveryTimes()
	return p
}

// Table 4 rows.
func nativeParams(rate float64) Params {
	return paperParams(rate, 0.613, 0.262, 0.125, 0)
}
func ilrParams(rate float64) Params {
	p := paperParams(rate, 0.242, 0.008, 0.750, 0)
	p.DetectsCorruption = true
	return p
}
func haftParams(rate float64) Params {
	p := paperParams(rate, 0.242, 0.011, 0.077, 0.670)
	p.DetectsCorruption = true
	return p
}

func TestExpmIdentityAndNilpotent(t *testing.T) {
	// exp(0) = I.
	z := [][]float64{{0, 0}, {0, 0}}
	e := expm(z)
	if e[0][0] != 1 || e[1][1] != 1 || e[0][1] != 0 {
		t.Fatalf("exp(0) = %v", e)
	}
	// exp([[0,1],[0,0]]) = [[1,1],[0,1]].
	n := [][]float64{{0, 1}, {0, 0}}
	e = expm(n)
	if math.Abs(e[0][1]-1) > 1e-12 || math.Abs(e[0][0]-1) > 1e-12 {
		t.Fatalf("exp(nilpotent) = %v", e)
	}
	// Scalar: exp(diag(a)) = diag(e^a), including large a needing
	// squaring.
	for _, a := range []float64{0.1, 1, 5, 30} {
		d := [][]float64{{-a, a}, {0, 0}} // upper-triangular generator
		e = expm(d)
		if got, want := e[0][0], math.Exp(-a); math.Abs(got-want) > 1e-9*want+1e-12 {
			t.Fatalf("exp(-%v) = %v, want %v", a, got, want)
		}
	}
}

func TestOccupancySumsToOne(t *testing.T) {
	p := haftParams(0.5)
	c, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	p0 := make([]float64, NumStates)
	p0[StateCorrect] = 1
	occ := c.Occupancy(p0, 3600)
	sum := 0.0
	for _, v := range occ {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("occupancy sums to %v: %v", sum, occ)
	}
}

func TestOccupancyMatchesAnalyticTwoState(t *testing.T) {
	// For a 0->1 (rate a), 1->0 (rate b) chain started at 0, the
	// occupancy of state 0 over [0,T] is
	//   b/(a+b) + a/(a+b)^2 * (1 - e^{-(a+b)T}) / T.
	a, b, T := 0.7, 0.3, 5.0
	c := NewCTMC(2)
	c.SetRate(0, 1, a)
	c.SetRate(1, 0, b)
	occ := c.Occupancy([]float64{1, 0}, T)
	want := b/(a+b) + a/((a+b)*(a+b))*(1-math.Exp(-(a+b)*T))/T
	if math.Abs(occ[0]-want) > 1e-9 {
		t.Fatalf("occupancy[0] = %v, want %v", occ[0], want)
	}
}

func TestFigure10Shape(t *testing.T) {
	// At a fault rate of 1/s over one hour (the right edge of
	// Figure 10): native availability ~0%, ILR ~10%, HAFT ~50%.
	getAvail := func(p Params) float64 {
		a, _, err := p.Evaluate(3600)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	nat := getAvail(nativeParams(1))
	ilr := getAvail(ilrParams(1))
	haft := getAvail(haftParams(1))
	t.Logf("availability at 1 fault/s: native=%.3f ilr=%.3f haft=%.3f", nat, ilr, haft)
	if !(nat < ilr && ilr < haft) {
		t.Fatalf("availability ordering violated: native=%v ilr=%v haft=%v", nat, ilr, haft)
	}
	if nat > 0.10 {
		t.Errorf("native availability %v, paper shows ~0", nat)
	}
	if ilr < 0.02 || ilr > 0.35 {
		t.Errorf("ILR availability %v, paper shows ~0.10", ilr)
	}
	if haft < 0.30 || haft > 0.75 {
		t.Errorf("HAFT availability %v, paper shows ~0.50", haft)
	}

	// Corruption: native spends most of the hour corrupted; ILR and
	// HAFT below 20%.
	_, natC, _ := nativeParams(1).Evaluate(3600)
	_, ilrC, _ := ilrParams(1).Evaluate(3600)
	_, haftC, _ := haftParams(1).Evaluate(3600)
	t.Logf("corruption at 1 fault/s: native=%.3f ilr=%.3f haft=%.3f", natC, ilrC, haftC)
	if natC < 0.5 {
		t.Errorf("native corruption %v, paper shows >80%%", natC)
	}
	if ilrC > 0.2 || haftC > 0.2 {
		t.Errorf("hardened corruption too high: ilr=%v haft=%v", ilrC, haftC)
	}
}

func TestAvailabilityMonotoneInFaultRate(t *testing.T) {
	prev := 2.0
	for _, rate := range []float64{0.00028, 0.01, 0.1, 0.3, 1.0} {
		a, _, err := haftParams(rate).Evaluate(3600)
		if err != nil {
			t.Fatal(err)
		}
		if a >= prev {
			t.Fatalf("availability not decreasing at rate %v: %v >= %v", rate, a, prev)
		}
		prev = a
	}
}

func TestZeroFaultRateFullyAvailable(t *testing.T) {
	a, c, err := haftParams(0).Evaluate(3600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-1) > 1e-9 || c > 1e-9 {
		t.Fatalf("no faults: availability=%v corruption=%v", a, c)
	}
}

func TestBuildRejectsBadProbabilities(t *testing.T) {
	p := paperParams(1, 0.5, 0.5, 0.5, 0)
	if _, err := p.Build(); err == nil {
		t.Fatal("Build accepted probabilities summing to 1.5")
	}
}

func TestSetRatePanicsOnDiagonal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCTMC(2).SetRate(1, 1, 5)
}

// Property: occupancy entries are valid probabilities for arbitrary
// small random chains.
func TestOccupancyIsDistributionProperty(t *testing.T) {
	f := func(r1, r2, r3 uint8, tRaw uint8) bool {
		a := 0.01 + float64(r1)/16
		b := 0.01 + float64(r2)/16
		d := 0.01 + float64(r3)/16
		T := 0.5 + float64(tRaw)/4
		c := NewCTMC(3)
		c.SetRate(0, 1, a)
		c.SetRate(1, 2, b)
		c.SetRate(2, 0, d)
		occ := c.Occupancy([]float64{1, 0, 0}, T)
		sum := 0.0
		for _, v := range occ {
			if v < -1e-9 || v > 1+1e-9 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
