package memsys

import (
	"fmt"

	"repro/internal/sim"
)

// HierarchyStats counts CPU-visible memory traffic.
type HierarchyStats struct {
	Reads  int64
	Writes int64
	Bytes  int64
}

// Hierarchy is the CPU-visible memory path of one node: cache in front of
// an address space of regions. Local service times (cache hits, DRAM)
// accumulate lazily and are charged to the process in batches, so only
// blocking operations (remote fills, page faults) cost simulation events.
//
// A hierarchy serves the single workload process of its node; concurrent
// processes on one node must each flush around interaction points.
type Hierarchy struct {
	Eng   *sim.Engine
	P     *sim.Params
	Cache *Cache
	AS    *AddressSpace

	lazy     sim.Dur
	lazyMax  sim.Dur
	lineMask uint64

	Stats HierarchyStats
}

// NewHierarchy builds the cache + address space stack for one node.
func NewHierarchy(eng *sim.Engine, p *sim.Params) *Hierarchy {
	return &Hierarchy{
		Eng:      eng,
		P:        p,
		Cache:    NewCache(p),
		AS:       &AddressSpace{},
		lazyMax:  100 * sim.Microsecond,
		lineMask: ^uint64(p.CacheLine - 1),
	}
}

// Compute accrues n simple operations of CPU work.
func (h *Hierarchy) Compute(p *sim.Proc, n int64) {
	h.lazy += h.P.Compute(n)
	h.maybeFlush(p)
}

// Think accrues a fixed duration of local work.
func (h *Hierarchy) Think(p *sim.Proc, d sim.Dur) {
	h.lazy += d
	h.maybeFlush(p)
}

// Flush charges all lazily-accumulated local time to the process.
func (h *Hierarchy) Flush(p *sim.Proc) {
	if h.lazy > 0 {
		d := h.lazy
		h.lazy = 0
		p.Sleep(d)
	}
}

// maybeFlush bounds how much virtual time can lag behind the engine.
func (h *Hierarchy) maybeFlush(p *sim.Proc) {
	if h.lazy >= h.lazyMax {
		h.Flush(p)
	}
}

// Read performs a load of size bytes at addr.
func (h *Hierarchy) Read(p *sim.Proc, addr uint64, size int) {
	h.Stats.Reads++
	h.access(p, addr, size, false)
}

// Write performs a store of size bytes at addr.
func (h *Hierarchy) Write(p *sim.Proc, addr uint64, size int) {
	h.Stats.Writes++
	h.access(p, addr, size, true)
}

// access walks the lines covered by [addr, addr+size). Misses to
// async-capable backends within one access are issued concurrently and
// awaited together (memory-level parallelism).
func (h *Hierarchy) access(p *sim.Proc, addr uint64, size int, write bool) {
	if size <= 0 {
		panic(fmt.Sprintf("memsys: non-positive access size %d", size))
	}
	h.Stats.Bytes += int64(size)
	ctx := &AccessCtx{Proc: p, Flush: func() { h.Flush(p) }}
	if r, ok := h.AS.Lookup(addr); ok && r.Uncached {
		// PIO window: no cache allocation, one backend access for the
		// whole operation.
		h.lazy += r.Backend.Access(ctx, addr, size, write)
		h.maybeFlush(p)
		return
	}
	line := uint64(h.P.CacheLine)
	first := addr & h.lineMask
	last := (addr + uint64(size) - 1) & h.lineMask
	multi := first != last
	mshrs := h.P.MSHRs
	if mshrs < 1 {
		mshrs = 1
	}
	// The MSHRs: a ring of in-flight misses, awaited oldest first. Its
	// slots live on this stack for every MSHR count up to 16; the
	// hierarchy is shared by every process of its node, so it cannot
	// hold them.
	var slots [16]*sim.Completion
	mshr := slots[:]
	if mshrs > len(slots) {
		mshr = make([]*sim.Completion, mshrs)
	}
	issued, awaited := 0, 0
	for la := first; ; la += line {
		if issued-awaited == mshrs {
			// MSHRs full: the core stalls on the oldest miss.
			h.Flush(p)
			p.Await(mshr[awaited%mshrs])
			awaited++
		}
		if c := h.accessLine(ctx, la, write, multi); c != nil {
			mshr[issued%mshrs] = c
			issued++
		}
		if la == last {
			break
		}
	}
	if awaited < issued {
		h.Flush(p)
		for ; awaited < issued; awaited++ {
			p.Await(mshr[awaited%mshrs])
		}
	}
	h.maybeFlush(p)
}

// accessLine performs the cache lookup and backend traffic for one line.
// When overlap is true and the backend supports it, the miss is issued
// asynchronously and its completion returned for the caller to await.
func (h *Hierarchy) accessLine(ctx *AccessCtx, lineAddr uint64, write, overlap bool) *sim.Completion {
	hit, victim, victimDirty := h.Cache.Access(lineAddr, write)
	h.lazy += h.P.CacheHit
	if hit {
		return nil
	}
	if victimDirty {
		h.writeback(ctx, victim)
	}
	r, ok := h.AS.Lookup(lineAddr)
	if !ok {
		panic(fmt.Sprintf("memsys: access to unmapped address %#x", lineAddr))
	}
	if overlap {
		if ab, ok := r.Backend.(AsyncBackend); ok {
			return ab.AccessAsync(ctx, lineAddr, h.P.CacheLine)
		}
	}
	h.lazy += r.Backend.Access(ctx, lineAddr, h.P.CacheLine, write)
	return nil
}

// writeback pushes an evicted dirty line to its backend.
func (h *Hierarchy) writeback(ctx *AccessCtx, lineAddr uint64) {
	r, ok := h.AS.Lookup(lineAddr)
	if !ok {
		// The region was unmapped while the line sat in the cache (e.g.
		// hot-removed); the data has no home and is dropped.
		return
	}
	h.lazy += r.Backend.Writeback(ctx, lineAddr, h.P.CacheLine)
}
