package memsys

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestAddressSpaceLookupAndOverlap(t *testing.T) {
	p := sim.Default()
	as := &AddressSpace{}
	dram := &LocalDRAM{P: &p}
	if err := as.Add(&Region{Base: 0, Size: 1 << 30, Backend: dram}); err != nil {
		t.Fatal(err)
	}
	if err := as.Add(&Region{Base: 1 << 29, Size: 1 << 20, Backend: dram}); err == nil {
		t.Fatal("overlapping region accepted")
	}
	if err := as.Add(&Region{Base: 1 << 30, Size: 1 << 20, Backend: dram}); err != nil {
		t.Fatal(err)
	}
	r, ok := as.Lookup(1 << 29)
	if !ok || r.Base != 0 {
		t.Fatal("Lookup failed")
	}
	if _, ok := as.Lookup(1<<30 + 1<<20); ok {
		t.Fatal("Lookup hit unmapped space")
	}
	as.Remove(r)
	if _, ok := as.Lookup(0); ok {
		t.Fatal("removed region still resolves")
	}
}

func TestHierarchyLocalAccessTiming(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	h := NewHierarchy(eng, &p)
	if err := h.AS.Add(&Region{Base: 0, Size: 1 << 30, Backend: &LocalDRAM{P: &p}}); err != nil {
		t.Fatal(err)
	}
	var elapsed sim.Dur
	eng.Go("cpu", func(pr *sim.Proc) {
		t0 := pr.Now()
		h.Read(pr, 0x1000, 8) // miss
		h.Read(pr, 0x1008, 8) // hit, same line
		h.Flush(pr)
		elapsed = pr.Now().Sub(t0)
	})
	eng.Run()
	want := 2*p.CacheHit + p.DRAMLat
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	if h.Stats.Reads != 2 || h.Stats.Bytes != 16 {
		t.Fatalf("stats = %+v", h.Stats)
	}
}

func TestHierarchyRemoteCRMABackend(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
	epA := transport.NewEndpoint(eng, &p, net, 0)
	epB := transport.NewEndpoint(eng, &p, net, 1)

	const winBase, winSize = uint64(0x1_0000_0000), uint64(1 << 20)
	if _, err := epA.CRMA.Map(winBase, winSize, 1, 0x4000_0000); err != nil {
		t.Fatal(err)
	}
	epB.CRMA.Export(0, winBase, winSize, 0x4000_0000)

	h := NewHierarchy(eng, &p)
	if err := h.AS.Add(&Region{Base: 0, Size: 1 << 30, Backend: &LocalDRAM{P: &p}}); err != nil {
		t.Fatal(err)
	}
	if err := h.AS.Add(&Region{Base: winBase, Size: winSize,
		Backend: &CRMARemote{CRMA: epA.CRMA, Donor: 1}}); err != nil {
		t.Fatal(err)
	}

	var local, remote sim.Dur
	eng.Go("cpu", func(pr *sim.Proc) {
		t0 := pr.Now()
		h.Read(pr, 0x2000, 8)
		h.Flush(pr)
		local = pr.Now().Sub(t0)

		t1 := pr.Now()
		h.Read(pr, winBase, 8)
		h.Flush(pr)
		remote = pr.Now().Sub(t1)

		// Second access to the same remote line hits the cache.
		t2 := pr.Now()
		h.Read(pr, winBase+8, 8)
		h.Flush(pr)
		if hitTime := pr.Now().Sub(t2); hitTime != p.CacheHit {
			t.Errorf("cached remote line cost %v, want %v", hitTime, p.CacheHit)
		}
	})
	eng.Run()
	if remote < 20*local {
		t.Fatalf("remote fill (%v) should dwarf local access (%v)", remote, local)
	}
	if epA.CRMA.Stats.Fills != 1 {
		t.Fatalf("fills = %d, want 1 (second access was cached)", epA.CRMA.Stats.Fills)
	}
}

func TestHierarchyDirtyRemoteWriteback(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	p.CacheBytes = 4 << 10
	p.CacheWays = 2
	net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
	epA := transport.NewEndpoint(eng, &p, net, 0)
	epB := transport.NewEndpoint(eng, &p, net, 1)
	const winBase, winSize = uint64(0x1_0000_0000), uint64(1 << 22)
	if _, err := epA.CRMA.Map(winBase, winSize, 1, 0); err != nil {
		t.Fatal(err)
	}
	epB.CRMA.Export(0, winBase, winSize, 0)

	h := NewHierarchy(eng, &p)
	if err := h.AS.Add(&Region{Base: winBase, Size: winSize,
		Backend: &CRMARemote{CRMA: epA.CRMA, Donor: 1}}); err != nil {
		t.Fatal(err)
	}
	eng.Go("cpu", func(pr *sim.Proc) {
		// Dirty a line, then stream enough set-conflicting lines (same
		// index, different tags) to force its eviction in a 2-way cache.
		h.Write(pr, winBase, 8)
		for i := uint64(1); i <= 8; i++ {
			h.Read(pr, winBase+i*uint64(p.CacheBytes), 8)
		}
		h.Flush(pr)
	})
	eng.Run()
	if epA.CRMA.Stats.Writes == 0 {
		t.Fatal("dirty remote line eviction produced no CRMA writeback")
	}
}

func TestPagedResidencyAndFaults(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	p.ReadaheadPages = 1 // exact fault counts below
	disk := LocalDisk(&p)
	paged := NewPaged(&p, 4, disk) // 4-page resident set
	h := NewHierarchy(eng, &p)
	if err := h.AS.Add(&Region{Base: 0, Size: 1 << 30, Backend: paged}); err != nil {
		t.Fatal(err)
	}
	pageSize := uint64(p.PageBytes)
	eng.Go("cpu", func(pr *sim.Proc) {
		for i := uint64(0); i < 8; i++ {
			h.Read(pr, i*pageSize, 8)
		}
		h.Flush(pr)
	})
	eng.Run()
	if paged.Stats.MajorFault != 8 {
		t.Fatalf("faults = %d, want 8", paged.Stats.MajorFault)
	}
	if paged.Resident() != 4 {
		t.Fatalf("resident = %d, want 4", paged.Resident())
	}
	if paged.IsResident(0) {
		t.Fatal("page 0 should have been evicted")
	}
	if !paged.IsResident(7 * pageSize) {
		t.Fatal("page 7 should be resident")
	}
	if paged.Stats.Evictions != 4 {
		t.Fatalf("evictions = %d, want 4", paged.Stats.Evictions)
	}
}

func TestPagedDirtyEvictionWritesBack(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	disk := LocalDisk(&p)
	paged := NewPaged(&p, 2, disk)
	h := NewHierarchy(eng, &p)
	if err := h.AS.Add(&Region{Base: 0, Size: 1 << 30, Backend: paged}); err != nil {
		t.Fatal(err)
	}
	pageSize := uint64(p.PageBytes)
	eng.Go("cpu", func(pr *sim.Proc) {
		h.Write(pr, 0, 8) // dirty page 0
		h.Read(pr, pageSize, 8)
		h.Read(pr, 2*pageSize, 8) // evicts page 0 (dirty)
		h.Read(pr, 3*pageSize, 8) // evicts page 1 (clean)
		h.Flush(pr)
	})
	eng.Run()
	if paged.Stats.DirtyWrite != 1 {
		t.Fatalf("dirty writes = %d, want 1", paged.Stats.DirtyWrite)
	}
}

func TestPagedFaultCostDominatedByDevice(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	p.ReadaheadPages = 1
	paged := NewPaged(&p, 2, LocalDisk(&p))
	h := NewHierarchy(eng, &p)
	if err := h.AS.Add(&Region{Base: 0, Size: 1 << 30, Backend: paged}); err != nil {
		t.Fatal(err)
	}
	var freshT, refaultT sim.Dur
	eng.Go("cpu", func(pr *sim.Proc) {
		// First touch: zero-fill-on-demand, no device read.
		t0 := pr.Now()
		h.Write(pr, 0, 8)
		h.Flush(pr)
		freshT = pr.Now().Sub(t0)
		// Dirty page 0, push it out, then fault it back from the device.
		h.Write(pr, 1*4096, 8)
		h.Write(pr, 2*4096, 8) // evicts page 0 (dirty -> written)
		t1 := pr.Now()
		h.Read(pr, 0+2048, 8)
		h.Flush(pr)
		refaultT = pr.Now().Sub(t1)
	})
	eng.Run()
	if freshT >= p.LocalDiskLat {
		t.Fatalf("zero-fill fault cost %v should not include device latency", freshT)
	}
	if refaultT < p.LocalDiskLat {
		t.Fatalf("re-fault cost %v below device latency %v", refaultT, p.LocalDiskLat)
	}
}

func TestRemoteSwapDeviceUsesRDMA(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
	epA := transport.NewEndpoint(eng, &p, net, 0)
	transport.NewEndpoint(eng, &p, net, 1)
	dev := &RemoteSwap{P: &p, RDMA: epA.RDMA, Donor: 1, Base: 0x4000_0000}
	var rd, wr sim.Dur
	eng.Go("driver", func(pr *sim.Proc) {
		t0 := pr.Now()
		dev.ReadPage(pr, 3)
		rd = pr.Now().Sub(t0)
		t1 := pr.Now()
		dev.WritePage(pr, 3)
		wr = pr.Now().Sub(t1)
	})
	eng.Run()
	if dev.PagesIn != 1 || dev.PagesOut != 1 {
		t.Fatalf("pages in/out = %d/%d", dev.PagesIn, dev.PagesOut)
	}
	if epA.RDMA.Stats.Reads != 1 || epA.RDMA.Stats.Writes != 1 {
		t.Fatalf("rdma ops = %+v", epA.RDMA.Stats)
	}
	// A remote page over 5 Gbps: ~6.6µs wire + overheads. Must beat disk
	// by orders of magnitude and exceed bare wire time.
	wire := p.Serialize(p.PageBytes)
	if rd < wire || rd > 100*sim.Microsecond {
		t.Fatalf("remote page read = %v, want [%v, 100µs]", rd, wire)
	}
	if wr < wire || wr > 100*sim.Microsecond {
		t.Fatalf("remote page write = %v, want [%v, 100µs]", wr, wire)
	}
}

func TestReadaheadAmortizesSequentialFaults(t *testing.T) {
	run := func(readahead int) (faults int64, elapsed sim.Dur) {
		eng := sim.New()
		defer eng.Close()
		p := sim.Default()
		p.ReadaheadPages = readahead
		paged := NewPaged(&p, 64, LocalDisk(&p))
		h := NewHierarchy(eng, &p)
		if err := h.AS.Add(&Region{Base: 0, Size: 1 << 30, Backend: paged}); err != nil {
			t.Fatal(err)
		}
		eng.Go("scan", func(pr *sim.Proc) {
			t0 := pr.Now()
			for pg := uint64(0); pg < 128; pg++ {
				h.Read(pr, pg*4096, 8)
			}
			h.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
		eng.Run()
		return paged.Stats.MajorFault, elapsed
	}
	noRA, noRATime := run(1)
	withRA, withRATime := run(8)
	if withRA >= noRA {
		t.Fatalf("readahead did not reduce faults: %d vs %d", withRA, noRA)
	}
	if withRATime >= noRATime {
		t.Fatalf("readahead did not speed the scan: %v vs %v", withRATime, noRATime)
	}
	// Random access must not trigger readahead batches.
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	paged := NewPaged(&p, 8, LocalDisk(&p))
	h := NewHierarchy(eng, &p)
	if err := h.AS.Add(&Region{Base: 0, Size: 1 << 30, Backend: paged}); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(9)
	eng.Go("random", func(pr *sim.Proc) {
		for i := 0; i < 64; i++ {
			h.Read(pr, uint64(rng.Intn(1<<15))*4096*7, 8)
		}
		h.Flush(pr)
	})
	eng.Run()
	if paged.Stats.Readahead > 2 {
		t.Fatalf("random faults triggered %d readaheads", paged.Stats.Readahead)
	}
}

func TestFixedLatencyDevice(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	dev := &FixedLatencyDevice{DevName: "eth-vdisk", P: &p,
		Latency: 200 * sim.Microsecond, MBps: 1000}
	var rd sim.Dur
	eng.Go("d", func(pr *sim.Proc) {
		t0 := pr.Now()
		dev.ReadPage(pr, 0)
		rd = pr.Now().Sub(t0)
	})
	eng.Run()
	want := 200*sim.Microsecond + sim.DurFromSeconds(4096/1000e6)
	if rd != want {
		t.Fatalf("read = %v, want %v", rd, want)
	}
	if dev.Name() != "eth-vdisk" {
		t.Fatal("name wrong")
	}
}

func TestMemManagerLifecycle(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	m := NewMemManager(&p, 1<<30)
	if err := m.Reserve(1 << 29); err != nil {
		t.Fatal(err)
	}
	if m.Idle() != 1<<29 {
		t.Fatalf("idle = %d", m.Idle())
	}
	if err := m.Reserve(1 << 30); err == nil {
		t.Fatal("over-reserve accepted")
	}
	var base uint64
	eng.Go("agent", func(pr *sim.Proc) {
		var err error
		base, err = m.HotRemove(pr, 1<<28)
		if err != nil {
			t.Errorf("HotRemove: %v", err)
		}
		// Donated memory is not idle.
		if m.Idle() != 1<<28 {
			t.Errorf("idle after donation = %d", m.Idle())
		}
		if m.Removed() != 1<<28 {
			t.Errorf("removed = %d", m.Removed())
		}
		// Return it.
		if err := m.HotAddReturn(pr, base, 1<<28); err != nil {
			t.Errorf("HotAddReturn: %v", err)
		}
		if m.Removed() != 0 {
			t.Errorf("removed after return = %d", m.Removed())
		}
	})
	eng.Run()
	if base != 1<<30-1<<28 {
		t.Fatalf("removed base = %#x, want top-of-memory carve", base)
	}
	m.Release(1 << 29)
	if m.Idle() != 1<<30 {
		t.Fatalf("idle after release = %d", m.Idle())
	}
}

func TestMemManagerValidation(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	m := NewMemManager(&p, 1<<30)
	eng.Go("agent", func(pr *sim.Proc) {
		if _, err := m.HotRemove(pr, 12345); err == nil {
			t.Error("unaligned hot-remove accepted")
		}
		if _, err := m.HotRemove(pr, 2<<30); err == nil {
			t.Error("oversized hot-remove accepted")
		}
		if err := m.HotAddReturn(pr, 0, 4096); err == nil {
			t.Error("bogus hot-add-return accepted")
		}
	})
	eng.Run()
}

func TestHotplugTimingCharged(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	m := NewMemManager(&p, 1<<30)
	var elapsed sim.Dur
	eng.Go("agent", func(pr *sim.Proc) {
		t0 := pr.Now()
		if _, err := m.HotRemove(pr, 1<<20); err != nil {
			t.Error(err)
		}
		elapsed = pr.Now().Sub(t0)
	})
	eng.Run()
	if elapsed != p.HotplugOp {
		t.Fatalf("hot-remove took %v, want %v", elapsed, p.HotplugOp)
	}
}
