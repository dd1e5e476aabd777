package ycsb

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWorkloadMixes(t *testing.T) {
	a := WorkloadA(1000)
	if a.ReadFrac != 0.5 || a.Dist != Zipfian {
		t.Fatalf("workload A: %+v", a)
	}
	d := WorkloadD(1000)
	if d.ReadFrac != 0.95 || d.Dist != Latest {
		t.Fatalf("workload D: %+v", d)
	}
}

func TestReadFractionRespected(t *testing.T) {
	g := NewGenerator(WorkloadA(1000), 1)
	reads := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Next().Op == OpRead {
			reads++
		}
	}
	frac := float64(reads) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("workload A read fraction = %v", frac)
	}
	g2 := NewGenerator(WorkloadD(1000), 1)
	reads = 0
	for i := 0; i < n; i++ {
		if g2.Next().Op == OpRead {
			reads++
		}
	}
	frac = float64(reads) / n
	if math.Abs(frac-0.95) > 0.01 {
		t.Fatalf("workload D read fraction = %v", frac)
	}
}

func TestZipfianSkew(t *testing.T) {
	g := NewGenerator(Workload{ReadFrac: 1, Dist: Zipfian, Records: 1000}, 3)
	counts := map[uint64]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	// Key 0 must be by far the hottest; the top-10 keys should hold a
	// large share.
	top := 0
	for k := uint64(0); k < 10; k++ {
		top += counts[k]
	}
	if float64(counts[0])/n < 0.05 {
		t.Errorf("zipf key 0 share = %v, want > 5%%", float64(counts[0])/n)
	}
	if float64(top)/n < 0.25 {
		t.Errorf("zipf top-10 share = %v, want > 25%%", float64(top)/n)
	}
	// All keys in range.
	for k := range counts {
		if k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestLatestFavorsRecentKeys(t *testing.T) {
	g := NewGenerator(Workload{ReadFrac: 1, Dist: Latest, Records: 1000}, 3)
	recent := 0
	const n = 20000
	for i := 0; i < n; i++ {
		k := g.Next().Key
		if k >= 900 {
			recent++
		}
	}
	if float64(recent)/n < 0.5 {
		t.Errorf("latest distribution: newest-10%% share = %v, want > 50%%", float64(recent)/n)
	}
}

func TestUniformCoversRange(t *testing.T) {
	g := NewGenerator(Workload{ReadFrac: 1, Dist: Uniform, Records: 64}, 3)
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		seen[g.Next().Key] = true
	}
	if len(seen) != 64 {
		t.Fatalf("uniform covered %d/64 keys", len(seen))
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := NewGenerator(WorkloadA(100), 42).Stream(100)
	b := NewGenerator(WorkloadA(100), 42).Stream(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(key uint64, write bool) bool {
		key &= (1 << 62) - 1
		r := Request{Key: key}
		if write {
			r.Op = OpWrite
		}
		// The key sits in the low bits and bit 63 marks a write.
		v := Encode(r)
		return v&^(1<<63) == key && (v>>63 != 0) == write
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
