package memsys

import (
	"container/list"

	"repro/internal/sim"
)

// BlockDevice is a page-granular storage target for the OS paging path.
// Implementations include local disk, the Venice remote-memory block
// device over RDMA (§5.2.1), and the commodity-interconnect devices of
// the Fig. 3 study.
type BlockDevice interface {
	// ReadPage fetches one page, blocking the process.
	ReadPage(p *sim.Proc, page uint64)
	// ReadPages fetches n consecutive pages starting at page in one
	// request (the readahead path), blocking the process.
	ReadPages(p *sim.Proc, page uint64, n int)
	// WritePage stores one page, blocking the process.
	WritePage(p *sim.Proc, page uint64)
	Name() string
}

// SwapStats counts paging activity. The accounting balances two ways:
// every backend access is either a minor hit or a major fault (the CPU
// cache in front of the pager absorbs repeats before they get here),
// and every eviction removes a page that PagesIn previously admitted,
// so Evictions <= PagesIn always. A major fault admits one page unless
// readahead extends it, so PagesIn >= MajorFault with equality when
// readahead is off.
type SwapStats struct {
	MinorHits  int64 // accesses to resident pages
	MajorFault int64 // faulting accesses (page-in traps)
	PagesIn    int64 // pages admitted to the resident set (incl. readahead)
	Evictions  int64 // pages pushed out (dirty ones cost a device write)
	DirtyWrite int64
	Readahead  int64 // faults that triggered a readahead batch
}

// Paged backs a region larger than the local memory that can hold it:
// an LRU resident set in local DRAM, with non-resident pages faulting in
// from the block device. It models the Linux swap path the paper's
// remote-memory-as-swap configurations exercise.
type Paged struct {
	P *sim.Params

	// ResidentPages is the local-memory budget in pages.
	ResidentPages int
	Dev           BlockDevice
	Local         *LocalDRAM
	// SyncWriteback charges dirty evictions to the faulting process
	// instead of modeling kernel write-behind.
	SyncWriteback bool

	lru      *list.List               // front = most recent; values are pageEnt
	pages    map[uint64]*list.Element // page -> element
	written  map[uint64]bool          // pages that exist on the device
	Stats    SwapStats
	pageBits uint
	lastWant uint64 // previous faulting page + 1, for sequential detection
}

type pageEnt struct {
	page  uint64
	dirty bool
}

// NewPaged builds a paged backend with the given resident budget.
func NewPaged(p *sim.Params, residentPages int, dev BlockDevice) *Paged {
	if residentPages < 1 {
		panic("memsys: resident set must hold at least one page")
	}
	bits := uint(0)
	for 1<<bits < p.PageBytes {
		bits++
	}
	return &Paged{
		P:             p,
		ResidentPages: residentPages,
		Dev:           dev,
		Local:         &LocalDRAM{P: p},
		lru:           list.New(),
		pages:         make(map[uint64]*list.Element),
		written:       make(map[uint64]bool),
		pageBits:      bits,
	}
}

// Name identifies the backend.
func (s *Paged) Name() string { return "paged:" + s.Dev.Name() }

// Resident reports the number of currently resident pages.
func (s *Paged) Resident() int { return s.lru.Len() }

// IsResident reports whether a page holding addr is resident.
func (s *Paged) IsResident(addr uint64) bool {
	_, ok := s.pages[addr>>s.pageBits]
	return ok
}

// Access implements Backend: resident pages cost a DRAM access; misses
// take a major fault through the device. Store intent marks the page
// dirty (the MMU dirty bit), independent of cache writeback timing.
func (s *Paged) Access(ctx *AccessCtx, addr uint64, size int, write bool) sim.Dur {
	page := addr >> s.pageBits
	if el, ok := s.pages[page]; ok {
		s.lru.MoveToFront(el)
		if write {
			el.Value.(*pageEnt).dirty = true
		}
		s.Stats.MinorHits++
		return s.Local.Access(ctx, addr, size, write)
	}
	s.fault(ctx, page, write)
	return 0
}

// Writeback lands an evicted dirty cache line on its page: cheap if the
// page is resident; dropped if the page has already been swapped out
// (the line's store intent already marked the page dirty when it was
// accessed, so no data is lost in this model).
func (s *Paged) Writeback(ctx *AccessCtx, addr uint64, size int) sim.Dur {
	page := addr >> s.pageBits
	if el, ok := s.pages[page]; ok {
		el.Value.(*pageEnt).dirty = true
		return s.Local.Writeback(ctx, addr, size)
	}
	return 0
}

// fault brings a page in — plus readahead when the fault stream looks
// sequential — evicting as needed. The software trap cost and all device
// time block the process.
func (s *Paged) fault(ctx *AccessCtx, page uint64, write bool) {
	ctx.Flush()
	s.Stats.MajorFault++
	p := ctx.Proc
	p.Sleep(s.P.PageFaultSW)

	// Sequential detection drives readahead, like the kernel's
	// swap-cluster logic: a fault at lastWant extends the window.
	batch := 1
	if page == s.lastWant && s.P.ReadaheadPages > 1 {
		batch = s.P.ReadaheadPages
		if batch > s.ResidentPages/2 {
			batch = s.ResidentPages / 2
		}
		if batch < 1 {
			batch = 1
		}
		s.Stats.Readahead++
	}
	s.lastWant = page + uint64(batch)

	s.makeRoom(p, batch)
	// Zero-fill-on-demand: a page never written back to the device has
	// no backing data, so the fault costs only the trap.
	if s.written[page] {
		if batch == 1 {
			s.Dev.ReadPage(p, page)
		} else {
			s.Dev.ReadPages(p, page, batch)
		}
	}
	for i := batch - 1; i >= 0; i-- {
		pg := page + uint64(i)
		if _, ok := s.pages[pg]; ok {
			continue
		}
		dirty := write && i == 0
		el := s.lru.PushFront(&pageEnt{page: pg, dirty: dirty})
		s.pages[pg] = el
		s.Stats.PagesIn++
	}
}

// makeRoom evicts until n pages fit in the resident set. Dirty victims
// are written back asynchronously (write-behind, as kswapd does): the
// faulting process pays only the reclaim bookkeeping, not the device
// write, unless SyncWriteback forces the slow path.
func (s *Paged) makeRoom(p *sim.Proc, n int) {
	for s.lru.Len() > s.ResidentPages-n {
		back := s.lru.Back()
		ent := back.Value.(*pageEnt)
		s.lru.Remove(back)
		delete(s.pages, ent.page)
		s.Stats.Evictions++
		if ent.dirty {
			s.Stats.DirtyWrite++
			s.written[ent.page] = true
			if s.SyncWriteback {
				s.Dev.WritePage(p, ent.page)
			} else {
				p.Sleep(2 * sim.Microsecond) // reclaim bookkeeping
			}
		}
	}
}
