package node

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/memsys"
	"repro/internal/sim"
)

func TestNodeConstruction(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
	n := New(eng, &p, net, 0, 1<<30)
	New(eng, &p, net, 1, 1<<30)

	if n.String() != "n0" {
		t.Fatalf("String = %q", n.String())
	}
	// Local memory is mapped from zero.
	if _, ok := n.Mem.AS.Lookup(0); !ok {
		t.Fatal("local DRAM not mapped at 0")
	}
	if _, ok := n.Mem.AS.Lookup(1 << 30); ok {
		t.Fatal("address above DRAM mapped")
	}
	if n.MemMgr.Idle() != 1<<30 {
		t.Fatalf("idle = %d", n.MemMgr.Idle())
	}
}

func TestNodeHotplugWindowsDoNotOverlap(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
	n := New(eng, &p, net, 0, 1<<30)
	New(eng, &p, net, 1, 1<<30)

	a := n.NextHotplugWindow(1 << 28)
	b := n.NextHotplugWindow(1 << 28)
	if a < 1<<30 {
		t.Fatalf("window %#x overlaps local DRAM", a)
	}
	if b < a+1<<28 {
		t.Fatalf("windows overlap: %#x then %#x", a, b)
	}
}

func TestNodeRunExecutesOnEngine(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
	n := New(eng, &p, net, 0, 1<<30)
	New(eng, &p, net, 1, 1<<30)

	var ranAt sim.Time
	done := n.Run("workload", func(pr *sim.Proc) {
		pr.Sleep(42 * sim.Microsecond)
		ranAt = pr.Now()
	})
	eng.Run()
	if !done.Done() || ranAt != sim.Time(42*sim.Microsecond) {
		t.Fatalf("workload did not run to completion: at %v", ranAt)
	}
}

func TestNodeLocalMemoryTiming(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
	n := New(eng, &p, net, 0, 1<<30)
	New(eng, &p, net, 1, 1<<30)

	var elapsed sim.Dur
	n.Run("touch", func(pr *sim.Proc) {
		t0 := pr.Now()
		n.Mem.Read(pr, 0x100, 8)
		n.Mem.Flush(pr)
		elapsed = pr.Now().Sub(t0)
	})
	eng.Run()
	if elapsed != p.CacheHit+p.DRAMLat {
		t.Fatalf("local miss = %v, want %v", elapsed, p.CacheHit+p.DRAMLat)
	}
}

// remoteFill times one CRMA read of size bytes from a donor node's
// exported memory, with the donor's DRAM latency set to dramLat.
func remoteFill(t *testing.T, dramLat sim.Dur, size int) sim.Dur {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	p.DRAMLat = dramLat
	net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
	recip := New(eng, &p, net, 0, 1<<30)
	donor := New(eng, &p, net, 1, 1<<30)

	const window = 1 << 16
	win := recip.NextHotplugWindow(window)
	donor.EP.CRMA.Export(0, win, window, 0)
	if _, err := recip.EP.CRMA.Map(win, window, 1, 0); err != nil {
		t.Fatal(err)
	}
	var elapsed sim.Dur
	recip.Run("fill", func(pr *sim.Proc) {
		t0 := pr.Now()
		recip.EP.CRMA.Fill(pr, win, size)
		elapsed = pr.Now().Sub(t0)
	})
	eng.Run()
	return elapsed
}

func TestNodeMemServiceAdapter(t *testing.T) {
	// The donor's memory service is the only part of a remote fill that
	// DRAM latency moves: raising it by d must slow a single-line fill by
	// exactly one access, and a page-sized fill by more.
	p := sim.Default()
	const d = 40 * sim.Nanosecond
	line := remoteFill(t, p.DRAMLat+d, 64) - remoteFill(t, p.DRAMLat, 64)
	if line != d {
		t.Fatalf("single-line service grew by %v, want one DRAM access %v", line, d)
	}
	page := remoteFill(t, p.DRAMLat+d, 4096) - remoteFill(t, p.DRAMLat, 4096)
	if page <= d {
		t.Fatalf("page-sized service grew by %v, want more than one access %v", page, d)
	}
}

func TestNodeBorrowedRegionEndToEnd(t *testing.T) {
	// Manual two-node wiring of a borrowed region: donor exports, the
	// recipient maps and mounts a CRMA-backed region; reads work and cost
	// remote latency.
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
	recip := New(eng, &p, net, 0, 1<<30)
	donor := New(eng, &p, net, 1, 1<<30)

	const size = 1 << 26
	win := recip.NextHotplugWindow(size)
	var elapsed sim.Dur
	recip.Run("borrow", func(pr *sim.Proc) {
		donorBase, err := donor.MemMgr.HotRemove(pr, size)
		if err != nil {
			t.Error(err)
			return
		}
		donor.EP.CRMA.Export(0, win, size, donorBase)
		if _, err := recip.EP.CRMA.Map(win, size, 1, donorBase); err != nil {
			t.Error(err)
			return
		}
		if err := recip.Mem.AS.Add(&memsys.Region{Base: win, Size: size,
			Backend: &memsys.CRMARemote{CRMA: recip.EP.CRMA, Donor: 1}}); err != nil {
			t.Error(err)
			return
		}
		t0 := pr.Now()
		recip.Mem.Read(pr, win+0x1000, 8)
		recip.Mem.Flush(pr)
		elapsed = pr.Now().Sub(t0)
	})
	eng.Run()
	if elapsed < 2*sim.Microsecond {
		t.Fatalf("borrowed-memory read = %v, want remote-scale latency", elapsed)
	}
	if recip.EP.CRMA.Stats.Fills != 1 {
		t.Fatalf("fills = %d", recip.EP.CRMA.Stats.Fills)
	}
}
