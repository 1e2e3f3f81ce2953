package memsys

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/transport"
)

// newPairNetMem and newEndpointAt are small aliases keeping the MSHR
// test below readable.
func newPairNetMem(eng *sim.Engine, p *sim.Params) *fabric.Network {
	return fabric.NewNetwork(eng, p, fabric.Pair(), sim.NewRNG(1))
}

func newEndpointAt(eng *sim.Engine, p *sim.Params, net *fabric.Network, id fabric.NodeID) *transport.Endpoint {
	return transport.NewEndpoint(eng, p, net, id)
}

// Property: the paged backend never holds more than its resident budget,
// and every access that reaches the pager leaves the touched page
// resident. (An access the cache absorbs never reaches the pager, and
// its page may legitimately have been evicted while its lines stayed
// cached — so residency is only asserted when the pager's counters
// moved.)
func TestPagedResidentBudgetProperty(t *testing.T) {
	prop := pagedBudgetProp(t)
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPagedResidentBudgetRegression pins inputs that once broke the
// property. The first revealed the over-strong original invariant:
// quick's time-based seeding eventually found an address whose page was
// evicted while its cache lines stayed valid, so a later re-touch was
// absorbed by the cache without the pager re-admitting the page.
func TestPagedResidentBudgetRegression(t *testing.T) {
	prop := pagedBudgetProp(t)
	if !prop(0x9709c59254eab0b2, 0xf6, 0xa4) {
		t.Fatal("cache-absorbed re-touch of an evicted page fails the budget property")
	}
}

// pagedBudgetProp builds the resident-budget property; split out so
// once-failing inputs can be pinned as regressions.
func pagedBudgetProp(t *testing.T) func(uint64, uint8, uint8) bool {
	t.Helper()
	return func(seed uint64, budget uint8, ops uint8) bool {
		resident := int(budget%30) + 2
		n := int(ops%60) + 1
		rng := sim.NewRNG(seed)
		eng := sim.New()
		defer eng.Close()
		p := sim.Default()
		p.ReadaheadPages = 1
		paged := NewPaged(&p, resident, LocalDisk(&p))
		h := NewHierarchy(eng, &p)
		if err := h.AS.Add(&Region{Base: 0, Size: 1 << 30, Backend: paged}); err != nil {
			return false
		}
		ok := true
		eng.Go("ops", func(pr *sim.Proc) {
			for i := 0; i < n; i++ {
				addr := uint64(rng.Intn(1<<18)) * 4096
				before := paged.Stats.MinorHits + paged.Stats.MajorFault
				if rng.Bool(0.3) {
					h.Write(pr, addr, 8)
				} else {
					h.Read(pr, addr, 8)
				}
				if paged.Resident() > resident {
					ok = false
				}
				reached := paged.Stats.MinorHits+paged.Stats.MajorFault > before
				if reached && !paged.IsResident(addr) {
					ok = false
				}
			}
			h.Flush(pr)
		})
		eng.Run()
		return ok
	}
}

// Property: paging accounting balances — every access is exactly one of
// a cache hit (absorbed before the pager), a minor hit, or a major
// fault; pages admitted cover the faults; and evictions never exceed
// admissions. The readahead window varies so batched admissions (one
// fault, several pages in) are exercised too.
func TestPagedAccountingProperty(t *testing.T) {
	prop := func(seed uint64, ops, readahead uint8) bool {
		n := int(ops%80) + 1
		rng := sim.NewRNG(seed)
		eng := sim.New()
		defer eng.Close()
		p := sim.Default()
		p.ReadaheadPages = int(readahead%8) + 1
		p.CacheBytes = 4 << 10 // tiny cache so accesses reach the pager
		paged := NewPaged(&p, 8, LocalDisk(&p))
		h := NewHierarchy(eng, &p)
		if err := h.AS.Add(&Region{Base: 0, Size: 1 << 30, Backend: paged}); err != nil {
			return false
		}
		eng.Go("ops", func(pr *sim.Proc) {
			for i := 0; i < n; i++ {
				h.Read(pr, uint64(rng.Intn(1<<16))*4096, 8)
			}
			h.Flush(pr)
		})
		eng.Run()
		s := paged.Stats
		if s.MinorHits+s.MajorFault != int64(n)-h.Cache.Stats.Hits {
			return false // cache absorption aside, the pager sees every access
		}
		if s.PagesIn < s.MajorFault {
			return false // each fault admits at least its own page
		}
		return s.Evictions <= s.PagesIn
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any access sequence, a second touch of the last
// address is a cache hit (temporal locality always preserved by LRU).
func TestHierarchyTemporalLocalityProperty(t *testing.T) {
	prop := func(addrs []uint32) bool {
		if len(addrs) == 0 {
			return true
		}
		eng := sim.New()
		defer eng.Close()
		p := sim.Default()
		h := NewHierarchy(eng, &p)
		if err := h.AS.Add(&Region{Base: 0, Size: 1 << 32, Backend: &LocalDRAM{P: &p}}); err != nil {
			return false
		}
		ok := true
		eng.Go("ops", func(pr *sim.Proc) {
			for _, a := range addrs {
				h.Read(pr, uint64(a), 8)
			}
			last := uint64(addrs[len(addrs)-1])
			misses := h.Cache.Stats.Misses
			h.Read(pr, last, 1)
			if h.Cache.Stats.Misses != misses {
				ok = false
			}
			h.Flush(pr)
		})
		eng.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRCapBoundsOverlap(t *testing.T) {
	// With MSHRs=1 a multi-line remote read serializes; with a large
	// budget the lines overlap. Timing must reflect that.
	run := func(mshrs int) sim.Dur {
		eng := sim.New()
		defer eng.Close()
		p := sim.Default()
		p.MSHRs = mshrs
		net := newPairNetMem(eng, &p)
		a := newEndpointAt(eng, &p, net, 0)
		b := newEndpointAt(eng, &p, net, 1)
		if _, err := a.CRMA.Map(0x1_0000_0000, 1<<20, 1, 0); err != nil {
			t.Fatal(err)
		}
		b.CRMA.Export(0, 0x1_0000_0000, 1<<20, 0)
		h := NewHierarchy(eng, &p)
		if err := h.AS.Add(&Region{Base: 0x1_0000_0000, Size: 1 << 20,
			Backend: &CRMARemote{CRMA: a.CRMA, Donor: 1}}); err != nil {
			t.Fatal(err)
		}
		var elapsed sim.Dur
		eng.Go("read", func(pr *sim.Proc) {
			t0 := pr.Now()
			h.Read(pr, 0x1_0000_0000, 4096) // 64 lines
			h.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
		eng.Run()
		return elapsed
	}
	serial, overlapped := run(1), run(16)
	if float64(overlapped) > 0.5*float64(serial) {
		t.Fatalf("16 MSHRs (%v) should at least halve the serial time (%v)", overlapped, serial)
	}
}
