package memsys

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func smallCacheParams() sim.Params {
	p := sim.Default()
	p.CacheBytes = 8 << 10 // 8 KiB: 128 lines
	p.CacheWays = 4
	return p
}

func TestCacheHitAfterMiss(t *testing.T) {
	p := smallCacheParams()
	c := NewCache(&p)
	hit, _, _ := c.Access(0x1000, false)
	if hit {
		t.Fatal("first access hit a cold cache")
	}
	hit, _, _ = c.Access(0x1000, false)
	if !hit {
		t.Fatal("second access missed")
	}
	// Same line, different offset.
	hit, _, _ = c.Access(0x1030, false)
	if !hit {
		t.Fatal("same-line access missed")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Stats.Hits, c.Stats.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	p := smallCacheParams()
	c := NewCache(&p)
	sets := uint64(c.Sets())
	line := uint64(c.LineSize())
	// Fill one set (4 ways) with conflicting lines, then add a 5th.
	for i := uint64(0); i < 5; i++ {
		c.Access(i*sets*line, false)
	}
	// Line 0 was least recently used: it must be gone.
	if c.Contains(0) {
		t.Fatal("LRU victim still cached")
	}
	if !c.Contains(4 * sets * line) {
		t.Fatal("newest line not cached")
	}
	// Touch line 1 to make it MRU, then insert another conflict: line 2
	// should be the victim.
	c.Access(1*sets*line, false)
	c.Access(5*sets*line, false)
	if !c.Contains(1 * sets * line) {
		t.Fatal("recently-touched line evicted")
	}
	if c.Contains(2 * sets * line) {
		t.Fatal("LRU line survived")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	p := smallCacheParams()
	c := NewCache(&p)
	sets := uint64(c.Sets())
	line := uint64(c.LineSize())
	c.Access(0, true) // dirty
	var victim uint64
	var dirty bool
	for i := uint64(1); i <= uint64(c.ways); i++ {
		_, v, d := c.Access(i*sets*line, false)
		if d {
			victim, dirty = v, d
		}
	}
	if !dirty || victim != 0 {
		t.Fatalf("dirty victim = %#x dirty=%v, want 0 dirty", victim, dirty)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
}

func TestCacheSequentialBeatsRandom(t *testing.T) {
	p := sim.Default() // 256 KiB cache
	rng := sim.NewRNG(7)
	const span = 16 << 20 // 16 MiB working set
	const accesses = 100000

	seq := NewCache(&p)
	for i := 0; i < accesses; i++ {
		seq.Access(uint64(i*8%span), false)
	}
	rnd := NewCache(&p)
	for i := 0; i < accesses; i++ {
		rnd.Access(uint64(rng.Intn(span)), false)
	}
	if seq.MissRatio() > 0.2 {
		t.Fatalf("sequential miss ratio %.3f too high", seq.MissRatio())
	}
	if rnd.MissRatio() < 0.9 {
		t.Fatalf("random miss ratio %.3f too low", rnd.MissRatio())
	}
}

func TestCacheInvalidateAll(t *testing.T) {
	// Each row runs its steps on a fresh cache: a positive address is a
	// read, a negative one a write to -addr, and 0 an InvalidateAll.
	for _, tc := range []struct {
		name       string
		steps      []int64
		gone       []uint64 // lines that must not be cached at the end
		writebacks int64
	}{
		{"dirty line written back", []int64{-0x40, 0x80, 0}, []uint64{0x40, 0x80}, 1},
		{"second call adds no writebacks", []int64{-0x40, 0x80, 0, 0}, []uint64{0x40, 0x80}, 1},
		{"empty cache", []int64{0}, nil, 0},
		{"line filled after an invalidation is dropped", []int64{-0x40, 0, -0xc0, 0}, []uint64{0x40, 0xc0}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := smallCacheParams()
			c := NewCache(&p)
			for _, s := range tc.steps {
				switch {
				case s == 0:
					c.InvalidateAll()
				case s < 0:
					c.Access(uint64(-s), true)
				default:
					c.Access(uint64(s), false)
				}
			}
			for _, addr := range tc.gone {
				if c.Contains(addr) {
					t.Errorf("line %#x survived InvalidateAll", addr)
				}
			}
			if c.Stats.Writebacks != tc.writebacks {
				t.Errorf("writebacks = %d, want %d", c.Stats.Writebacks, tc.writebacks)
			}
		})
	}
}

// Property: immediately re-accessing any address hits.
func TestCacheRereferenceProperty(t *testing.T) {
	p := smallCacheParams()
	c := NewCache(&p)
	prop := func(addr uint64) bool {
		c.Access(addr, false)
		hit, _, _ := c.Access(addr, false)
		return hit
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits+misses equals total accesses.
func TestCacheAccountingProperty(t *testing.T) {
	prop := func(addrs []uint32) bool {
		p := smallCacheParams()
		c := NewCache(&p)
		for _, a := range addrs {
			c.Access(uint64(a), a%3 == 0)
		}
		return c.Stats.Hits+c.Stats.Misses == int64(len(addrs))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
