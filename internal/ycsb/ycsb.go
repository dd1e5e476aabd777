// Package ycsb implements the YCSB-style workload generators used in
// the paper's case studies (§6.1): key-value request streams with the
// read/write mixes and key distributions of the standard workloads,
// notably A (50% reads, 50% writes, zipfian) and D (95% reads, 5%
// writes, latest).
package ycsb

import (
	"math"
	"math/rand"
)

// Op is a request operation.
type Op uint8

const (
	// OpRead is a GET.
	OpRead Op = iota
	// OpWrite is a PUT/UPDATE.
	OpWrite
)

// Distribution selects how keys are drawn.
type Distribution uint8

const (
	// Uniform draws keys uniformly.
	Uniform Distribution = iota
	// Zipfian draws keys with the YCSB zipfian skew (theta 0.99).
	Zipfian
	// Latest favors recently inserted keys (zipfian over recency).
	Latest
)

// Workload describes a request mix.
type Workload struct {
	Name      string
	ReadFrac  float64
	Dist      Distribution
	Records   int
	VerifyTag uint64 // mixed into generated values
}

// WorkloadA returns YCSB A: 50% reads, 50% writes, zipfian.
func WorkloadA(records int) Workload {
	return Workload{Name: "A", ReadFrac: 0.5, Dist: Zipfian, Records: records}
}

// WorkloadD returns YCSB D: 95% reads, 5% writes, latest.
func WorkloadD(records int) Workload {
	return Workload{Name: "D", ReadFrac: 0.95, Dist: Latest, Records: records}
}

// Request is one generated operation.
type Request struct {
	Op  Op
	Key uint64
}

// Generator produces a deterministic request stream.
type Generator struct {
	w    Workload
	rng  *rand.Rand
	zipf *zipfGen
	// insertCount tracks the notional newest record for Latest.
	insertCount int
}

// NewGenerator returns a generator with the given seed.
func NewGenerator(w Workload, seed int64) *Generator {
	g := &Generator{
		w:           w,
		rng:         rand.New(rand.NewSource(seed)),
		insertCount: w.Records,
	}
	if w.Dist == Zipfian || w.Dist == Latest {
		g.zipf = newZipf(uint64(w.Records), 0.99)
	}
	return g
}

// Next returns the next request.
func (g *Generator) Next() Request {
	var op Op
	if g.rng.Float64() < g.w.ReadFrac {
		op = OpRead
	} else {
		op = OpWrite
	}
	var key uint64
	switch g.w.Dist {
	case Uniform:
		key = uint64(g.rng.Intn(g.w.Records))
	case Zipfian:
		key = g.zipf.next(g.rng)
	case Latest:
		// Most recent keys are hottest: key = newest - zipf sample.
		off := g.zipf.next(g.rng)
		key = uint64(g.insertCount-1) - off
		if key >= uint64(g.w.Records) {
			key = 0
		}
	}
	return Request{Op: op, Key: key}
}

// Stream generates n requests.
func (g *Generator) Stream(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Encode packs a request into one 64-bit word: bit 63 = write flag,
// low bits = key. Workload programs read these words from memory.
func Encode(r Request) uint64 {
	v := r.Key
	if r.Op == OpWrite {
		v |= 1 << 63
	}
	return v
}

// zipfGen is the standard YCSB zipfian generator (Gray et al.): draws
// from [0, n) with P(k) ∝ 1/(k+1)^theta, with the usual zeta-based
// inversion.
type zipfGen struct {
	n          uint64
	theta      float64
	alpha      float64
	zetan      float64
	eta        float64
	zeta2theta float64
}

func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(0); i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
	}
	return sum
}

func newZipf(n uint64, theta float64) *zipfGen {
	if n == 0 {
		n = 1
	}
	z := &zipfGen{n: n, theta: theta}
	z.zetan = zetaStatic(n, theta)
	z.zeta2theta = zetaStatic(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

func (z *zipfGen) next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
