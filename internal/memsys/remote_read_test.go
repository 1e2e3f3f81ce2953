package memsys

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/transport"
)

// remoteReadBytes is one perfbench spine-read request: a 2 KiB read,
// 32 cache lines.
const remoteReadBytes = 2 << 10

// remoteReadRig is a hierarchy whose only region is a 64 MiB CRMA
// window onto the other node of a Pair. next walks the window 2 KiB at
// a time, so every read misses all of its lines in the 256 KiB cache.
type remoteReadRig struct {
	eng  *sim.Engine
	h    *Hierarchy
	crma *transport.CRMA
	off  uint64
}

func newRemoteReadRig(tb testing.TB) *remoteReadRig {
	tb.Helper()
	eng := sim.New()
	tb.Cleanup(eng.Close)
	p := sim.Default()
	net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
	a := transport.NewEndpoint(eng, &p, net, 0)
	b := transport.NewEndpoint(eng, &p, net, 1)
	const winBase, winSize = uint64(0x1_0000_0000), uint64(64 << 20)
	if _, err := a.CRMA.Map(winBase, winSize, 1, 0); err != nil {
		tb.Fatal(err)
	}
	b.CRMA.Export(0, winBase, winSize, 0)
	h := NewHierarchy(eng, &p)
	if err := h.AS.Add(&Region{Base: winBase, Size: winSize,
		Backend: &CRMARemote{CRMA: a.CRMA, Donor: 1}}); err != nil {
		tb.Fatal(err)
	}
	return &remoteReadRig{eng: eng, h: h, crma: a.CRMA, off: winBase}
}

// read performs the next 2 KiB read and charges its local time.
func (r *remoteReadRig) read(p *sim.Proc) {
	r.h.Read(p, r.off, remoteReadBytes)
	r.h.Flush(p)
	r.off += remoteReadBytes
	if r.off == 0x1_0000_0000+64<<20 {
		r.off = 0x1_0000_0000
	}
}

// TestRemoteReadSteadyStateAllocs gates a warm 2 KiB read that misses
// all 32 lines: 3 allocations per fill (request packet, response packet,
// Completion) plus the access context and its flush closure. Each run
// reads from a fresh proc, whose own Go completion is not counted.
func TestRemoteReadSteadyStateAllocs(t *testing.T) {
	r := newRemoteReadRig(t)
	read := r.read
	run := func() {
		r.eng.Go("cpu", read)
		r.eng.Run()
	}
	for i := 0; i < 3000; i++ {
		run()
	}
	fills := r.crma.Stats.Fills
	const runs = 200
	got := testing.AllocsPerRun(runs, run) - 1
	if n := r.crma.Stats.Fills - fills; n != 32*(runs+1) {
		t.Fatalf("%d fills over %d reads, want 32 each", n, runs+1)
	}
	if got > 3*32+2 {
		t.Fatalf("steady-state 2 KiB remote read allocates %.2f/op, want <= %d", got, 3*32+2)
	}
}

// BenchmarkRemoteRead measures one 2 KiB read over a CRMA window that
// misses every line, the request of perfbench's spine-read workload.
func BenchmarkRemoteRead(b *testing.B) {
	r := newRemoteReadRig(b)
	r.eng.Go("warm", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			r.read(p)
		}
	})
	r.eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	r.eng.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			r.read(p)
		}
	})
	r.eng.Run()
}
