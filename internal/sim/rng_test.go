package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	a2 := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/1000", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	prop := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(123)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := draws / buckets
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d count %d deviates >10%% from %d", i, c, want)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		m := int(n%64) + 1
		p := NewRNG(seed).Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(1)
	f := r.Fork()
	// The fork must not replay the parent's stream.
	a, b := r.Uint64(), f.Uint64()
	if a == b {
		t.Fatal("fork replays parent stream")
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(42)
	z := NewZipf(r, 1000, 0.99)
	counts := make(map[int]int)
	const draws = 50000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Head must be much hotter than the tail for a skewed distribution.
	if counts[0] < draws/100 {
		t.Fatalf("head element drawn only %d times; distribution not skewed", counts[0])
	}
}

func TestZipfUniformDegenerate(t *testing.T) {
	r := NewRNG(5)
	z := NewZipf(r, 100, 0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("theta=0 bucket %d count %d deviates from uniform", i, c)
		}
	}
}
