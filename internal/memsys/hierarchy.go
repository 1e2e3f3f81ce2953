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

	// Free lists of the completions that track in-flight misses and of
	// access contexts, each context's Flush bound once. They are free
	// lists rather than one set per hierarchy because the hierarchy is
	// shared by every process of its node, whose accesses overlap.
	mshrFree []*sim.Completion
	ctxFree  []*AccessCtx

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
// async-capable backends within one access are issued concurrently, up
// to MSHRs at a time, and awaited oldest first (memory-level
// parallelism).
//
// The MSHR loop (advance) starts in the process. Where the core stalls,
// it schedules its own step in the slot the process's wakeup used to
// take, and the process parks; the steps run the loop on in events and
// resume the process once, in the event where the loop ends or reaches
// a miss the process must serve itself. An access that never stalls
// never parks.
func (h *Hierarchy) access(p *sim.Proc, addr uint64, size int, write bool) {
	if size <= 0 {
		panic(fmt.Sprintf("memsys: non-positive access size %d", size))
	}
	h.Stats.Bytes += int64(size)
	ctx := h.context(p)
	if r, ok := h.AS.Lookup(addr); ok && r.Uncached {
		// PIO window: no cache allocation, one backend access for the
		// whole operation.
		h.lazy += r.Backend.Access(ctx, addr, size, write)
		h.putContext(ctx)
		h.maybeFlush(p)
		return
	}
	first := addr & h.lineMask
	last := (addr + uint64(size) - 1) & h.lineMask
	ctx.la, ctx.lines = first, int((last-first)/uint64(h.P.CacheLine))+1
	ctx.write, ctx.multi = write, first != last
	ctx.issued, ctx.awaited, ctx.target = 0, 0, 0
	mshrs := max(h.P.MSHRs, 1)
	if cap(ctx.mshr) < mshrs {
		ctx.mshr = make([]*sim.Completion, mshrs)
	}
	ctx.mshr = ctx.mshr[:mshrs]
	for {
		if h.advance(ctx) {
			// A step resumes p where the loop ends or hands it a line.
			p.Park()
		}
		b := ctx.sync
		if b == nil {
			break
		}
		ctx.sync = nil
		h.lazy += b.Access(ctx, ctx.syncAt, h.P.CacheLine, write)
	}
	h.putContext(ctx)
	h.maybeFlush(p)
}

// advance runs ctx's MSHR loop on from where it stands. It accesses the
// lines in order, issuing async misses into the ring. Where the core
// stalls — the MSHRs are full, or every line is done and misses are
// still in flight — it charges the lazy local time, as Flush does, then
// awaits the oldest miss, or in the drain every miss. It returns true
// once it has scheduled ctx.step for a wait: after the lazy time, or on
// the oldest miss's completion, where the process's wakeup from Sleep
// or Await fired. It returns false when the access is done, or when the
// line it just looked up is a miss the process must serve itself
// (ctx.sync).
func (h *Hierarchy) advance(ctx *AccessCtx) bool {
	for {
		for ctx.awaited < ctx.target {
			c := ctx.mshr[ctx.awaited%len(ctx.mshr)]
			if !c.Done() {
				c.Then(ctx.step)
				return true
			}
			h.mshrFree = append(h.mshrFree, c)
			ctx.awaited++
		}
		switch {
		case ctx.lines == 0:
			if ctx.awaited == ctx.issued {
				return false
			}
			// The drain: the core stalls until every miss lands.
			ctx.target = ctx.issued
		case ctx.issued-ctx.awaited == len(ctx.mshr):
			// MSHRs full: the core stalls on the oldest miss.
			ctx.target = ctx.awaited + 1
		default:
			la := ctx.la
			ctx.la += uint64(h.P.CacheLine)
			ctx.lines--
			if b := h.accessLine(ctx, la); b != nil {
				ctx.sync, ctx.syncAt = b, la
				return false
			}
			continue
		}
		if d := h.lazy; d > 0 {
			h.lazy = 0
			h.Eng.Schedule(d, ctx.step)
			return true
		}
	}
}

// context takes an access context for p off the free list.
func (h *Hierarchy) context(p *sim.Proc) *AccessCtx {
	n := len(h.ctxFree)
	if n == 0 {
		ctx := &AccessCtx{Proc: p}
		ctx.Flush = func() { h.Flush(ctx.Proc) }
		ctx.step = func() {
			if !h.advance(ctx) {
				ctx.Proc.Resume()
			}
		}
		return ctx
	}
	ctx := h.ctxFree[n-1]
	h.ctxFree = h.ctxFree[:n-1]
	ctx.Proc = p
	return ctx
}

// putContext puts an access's context back on the free list.
func (h *Hierarchy) putContext(ctx *AccessCtx) {
	ctx.Proc = nil
	h.ctxFree = append(h.ctxFree, ctx)
}

// mshr takes an incomplete completion for one miss off the free list.
func (h *Hierarchy) mshr() *sim.Completion {
	n := len(h.mshrFree)
	if n == 0 {
		return sim.NewCompletion(h.Eng)
	}
	c := h.mshrFree[n-1]
	h.mshrFree = h.mshrFree[:n-1]
	c.Rearm()
	return c
}

// accessLine performs the cache lookup for one line of ctx's access.
// A miss to an async-capable backend in a multi-line access is issued
// into a completion off the free list, in the ring's next slot (advance
// puts it back once awaited). accessLine returns the backend of any
// other miss, which the process serves itself with Access, and nil
// otherwise.
func (h *Hierarchy) accessLine(ctx *AccessCtx, lineAddr uint64) Backend {
	hit, victim, victimDirty := h.Cache.Access(lineAddr, ctx.write)
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
	if ctx.multi {
		if ab, ok := r.Backend.(AsyncBackend); ok {
			done := h.mshr()
			ab.AccessAsync(ctx, lineAddr, h.P.CacheLine, done)
			ctx.mshr[ctx.issued%len(ctx.mshr)] = done
			ctx.issued++
			return nil
		}
	}
	return r.Backend
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
