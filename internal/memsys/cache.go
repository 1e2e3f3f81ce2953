// Package memsys models each node's memory system: a set-associative
// last-level cache, a physical address space composed of regions with
// pluggable backends (local DRAM, CRMA-mapped remote memory, paged/swap
// regions), the OS paging path with pluggable block devices, and the
// Linux-style memory hot-plug/hot-remove mechanism Venice uses to move
// regions between nodes (§5.2.1, Fig. 10).
//
// Caches are real arrays, not statistical models: random and sequential
// access streams produce their true miss behavior, which is what drives
// every CRMA-vs-RDMA crossover in the paper's evaluation.
package memsys

import "repro/internal/sim"

// CacheStats counts cache events.
type CacheStats struct {
	Hits       int64
	Misses     int64
	Writebacks int64
}

// cacheLine is one way of one set.
type cacheLine struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement over 64-byte (configurable) lines.
type Cache struct {
	lineBits uint
	setMask  uint64
	ways     int
	sets     []cacheLine // sets*ways, flattened
	valid    int         // lines with valid set
	useClock uint64

	Stats CacheStats
}

// NewCache builds a cache from the parameter set.
func NewCache(p *sim.Params) *Cache {
	lineBits := uint(0)
	for 1<<lineBits < p.CacheLine {
		lineBits++
	}
	nlines := p.CacheBytes / p.CacheLine
	nsets := nlines / p.CacheWays
	if nsets < 1 {
		nsets = 1
	}
	// Round sets down to a power of two for mask indexing.
	for nsets&(nsets-1) != 0 {
		nsets--
	}
	return &Cache{
		lineBits: lineBits,
		setMask:  uint64(nsets - 1),
		ways:     p.CacheWays,
		sets:     make([]cacheLine, nsets*p.CacheWays),
	}
}

// LineSize reports the cache line size in bytes.
func (c *Cache) LineSize() int { return 1 << c.lineBits }

// Sets reports the number of sets.
func (c *Cache) Sets() int { return len(c.sets) / c.ways }

// Access looks up the line containing addr, allocating it on a miss.
// It reports whether the access hit, and on a miss the evicted victim
// line address and whether that victim was dirty (needing writeback).
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim uint64, victimDirty bool) {
	c.useClock++
	tag := addr >> c.lineBits
	set := int(tag & c.setMask)
	base := set * c.ways
	lruIdx, lruUse := base, c.useClock
	for i := base; i < base+c.ways; i++ {
		l := &c.sets[i]
		if l.valid && l.tag == tag {
			l.lastUse = c.useClock
			if write {
				l.dirty = true
			}
			c.Stats.Hits++
			return true, 0, false
		}
		if !l.valid {
			lruIdx, lruUse = i, 0
		} else if l.lastUse < lruUse {
			lruIdx, lruUse = i, l.lastUse
		}
	}
	c.Stats.Misses++
	v := &c.sets[lruIdx]
	if !v.valid {
		c.valid++
	} else if v.dirty {
		victim = v.tag << c.lineBits
		victimDirty = true
		c.Stats.Writebacks++
	}
	v.tag = tag
	v.valid = true
	v.dirty = write
	v.lastUse = c.useClock
	return false, victim, victimDirty
}

// Contains reports whether the line holding addr is currently cached,
// without touching LRU state (for tests and invariants).
func (c *Cache) Contains(addr uint64) bool {
	tag := addr >> c.lineBits
	set := int(tag & c.setMask)
	base := set * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.sets[i].valid && c.sets[i].tag == tag {
			return true
		}
	}
	return false
}

// InvalidateAll drops every line (e.g. after a region is unmapped).
// Dirty lines are counted as writebacks. On a cache with no valid line
// it returns at once: an invalid line's other fields are never read.
func (c *Cache) InvalidateAll() {
	if c.valid == 0 {
		return
	}
	c.valid = 0
	for i := range c.sets {
		if c.sets[i].valid && c.sets[i].dirty {
			c.Stats.Writebacks++
		}
		c.sets[i] = cacheLine{}
	}
}

// MissRatio reports misses / (hits+misses).
func (c *Cache) MissRatio() float64 {
	total := c.Stats.Hits + c.Stats.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Stats.Misses) / float64(total)
}
