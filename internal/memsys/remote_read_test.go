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
// a time, so every access misses all of its lines in the 256 KiB cache.
type remoteReadRig struct {
	eng  *sim.Engine
	h    *Hierarchy
	crma *transport.CRMA
	off  uint64
}

// newRemoteReadRig builds the rig with mshrs MSHRs, or the default
// count when mshrs is 0.
func newRemoteReadRig(tb testing.TB, mshrs int) *remoteReadRig {
	tb.Helper()
	eng := sim.New()
	tb.Cleanup(eng.Close)
	p := sim.Default()
	if mshrs > 0 {
		p.MSHRs = mshrs
	}
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

// next performs the next 2 KiB read, or write, and charges its local
// time.
func (r *remoteReadRig) next(p *sim.Proc, write bool) {
	off := r.off
	r.off += remoteReadBytes
	if r.off == 0x1_0000_0000+64<<20 {
		r.off = 0x1_0000_0000
	}
	if write {
		r.h.Write(p, off, remoteReadBytes)
	} else {
		r.h.Read(p, off, remoteReadBytes)
	}
	r.h.Flush(p)
}

// remoteReadRows are the 2 KiB accesses the allocation gate and
// BenchmarkRemoteRead run: perfbench spine-read's read with the default
// MSHRs, the same with 16, a write whose 32 victims are dirty (each
// writeback posted over CRMA), and two procs each reading at once
// through one hierarchy.
var remoteReadRows = []struct {
	name  string
	mshrs int
	write bool
	procs int
}{
	{"read", 0, false, 1},
	{"mshr16", 16, false, 1},
	{"dirty-write", 0, true, 1},
	{"two-procs", 0, false, 2},
}

// TestRemoteReadSteadyStateAllocs gates a warm 2 KiB access that misses
// all 32 lines: it allocates nothing, in every row. Each fill completes
// one of the hierarchy's recycled MSHR completions, both its packets go
// back to their senders' lists, and the access context comes off the
// hierarchy's free list with its flush closure, its event-chain step
// and its MSHR ring. Each run makes its accesses from fresh detached
// procs.
func TestRemoteReadSteadyStateAllocs(t *testing.T) {
	for _, row := range remoteReadRows {
		t.Run(row.name, func(t *testing.T) {
			r := newRemoteReadRig(t, row.mshrs)
			access := func(p *sim.Proc) { r.next(p, row.write) }
			run := func() {
				for range row.procs {
					r.eng.Spawn("cpu", access)
				}
				r.eng.Run()
			}
			for i := 0; i < 3000; i++ {
				run()
			}
			fills, victims := r.crma.Stats.Fills, r.h.Cache.Stats.Writebacks
			const runs = 200
			got := testing.AllocsPerRun(runs, run)
			if n, want := r.crma.Stats.Fills-fills, int64(32*row.procs*(runs+1)); n != want {
				t.Fatalf("%d fills over %d runs, want %d", n, runs+1, want)
			}
			if n := r.h.Cache.Stats.Writebacks - victims; row.write && n != 32*(runs+1) {
				t.Fatalf("%d dirty victims over %d writes, want 32 each", n, runs+1)
			}
			if got > 0 {
				t.Fatalf("steady-state 2 KiB remote %s allocates %.2f/op, want 0", row.name, got)
			}
		})
	}
}

// BenchmarkRemoteRead measures a 2 KiB access over a CRMA window that
// misses every line, the request of perfbench's spine-read workload, in
// each of remoteReadRows; in the two-procs row one op is both procs'
// reads.
func BenchmarkRemoteRead(b *testing.B) {
	for _, row := range remoteReadRows {
		b.Run(row.name, func(b *testing.B) {
			r := newRemoteReadRig(b, row.mshrs)
			loop := func(n int) {
				for range row.procs {
					r.eng.Spawn("cpu", func(p *sim.Proc) {
						for i := 0; i < n; i++ {
							r.next(p, row.write)
						}
					})
				}
				r.eng.Run()
			}
			loop(1000)
			b.ReportAllocs()
			b.ResetTimer()
			loop(b.N)
		})
	}
}
