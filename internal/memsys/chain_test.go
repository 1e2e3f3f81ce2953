package memsys

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/transport"
)

// refAccess is the MSHR loop as it ran before it became an event chain,
// kept as FuzzAccessChain's reference: the process itself sleeps off the
// lazy time and awaits each miss, and the ring lives on its stack.
func refAccess(h *Hierarchy, p *sim.Proc, addr uint64, size int, write bool) {
	if size <= 0 {
		panic(fmt.Sprintf("memsys: non-positive access size %d", size))
	}
	h.Stats.Bytes += int64(size)
	ctx := h.context(p)
	if r, ok := h.AS.Lookup(addr); ok && r.Uncached {
		h.lazy += r.Backend.Access(ctx, addr, size, write)
		h.putContext(ctx)
		h.maybeFlush(p)
		return
	}
	line := uint64(h.P.CacheLine)
	first := addr & h.lineMask
	last := (addr + uint64(size) - 1) & h.lineMask
	multi := first != last
	mshrs := max(h.P.MSHRs, 1)
	mshr := make([]*sim.Completion, mshrs)
	await := func(c *sim.Completion) {
		p.Await(c)
		h.mshrFree = append(h.mshrFree, c)
	}
	issued, awaited := 0, 0
	for la := first; ; la += line {
		if issued-awaited == mshrs {
			// MSHRs full: the core stalls on the oldest miss.
			h.Flush(p)
			await(mshr[awaited%mshrs])
			awaited++
		}
		if c := refAccessLine(h, ctx, la, write, multi); c != nil {
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
			await(mshr[awaited%mshrs])
		}
	}
	h.putContext(ctx)
	h.maybeFlush(p)
}

// refAccessLine is refAccess's line: the cache lookup, and the backend
// traffic of a miss, issued asynchronously into a completion off the
// free list when overlap is true and the backend supports it.
func refAccessLine(h *Hierarchy, ctx *AccessCtx, lineAddr uint64, write, overlap bool) *sim.Completion {
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
			done := h.mshr()
			ab.AccessAsync(ctx, lineAddr, h.P.CacheLine, done)
			return done
		}
	}
	h.lazy += r.Backend.Access(ctx, lineAddr, h.P.CacheLine, write)
	return nil
}

// The chain rig's address space: a CRMA window, a local-DRAM region
// right after it and a Paged region right after that, so one access of
// up to 4 KiB may span all three.
const (
	chainWin     = uint64(0x1_0000_0000)
	chainWinSize = uint64(64 << 10)
	chainDRAM    = chainWin + chainWinSize
	chainDRAMSz  = uint64(2 << 10)
	chainPaged   = chainDRAM + chainDRAMSz
	chainPagedSz = uint64(64 << 10)
	chainSpan    = chainWinSize + chainDRAMSz + chainPagedSz
)

// chainMSHRs are the MSHR counts FuzzAccessChain's first byte picks from.
var chainMSHRs = [...]int{1, 2, 4, 16, 24}

// chainRig is one FuzzAccessChain rig: node 0 of a three-node line reads
// through a hierarchy whose 8 KiB cache holds 128 lines, so long
// accesses evict dirty lines. Its CRMA window is exported by donor 1
// and, after a retarget, by donor 2.
type chainRig struct {
	eng    *sim.Engine
	h      *Hierarchy
	crma   *transport.CRMA
	win    *transport.RAMTEntry
	donors [3]*transport.CRMA
	export [3]*transport.RAMTEntry
	donor  fabric.NodeID
	paged  *Paged
}

func newChainRig(tb testing.TB, mshrs int) *chainRig {
	tb.Helper()
	eng := sim.New()
	tb.Cleanup(eng.Close)
	p := sim.Default()
	p.MSHRs = mshrs
	p.CacheBytes, p.CacheWays = 8<<10, 4
	net := fabric.NewNetwork(eng, &p, fabric.Line(3), sim.NewRNG(1))
	r := &chainRig{eng: eng, h: NewHierarchy(eng, &p), donor: 1}
	for i := range r.donors {
		r.donors[i] = transport.NewEndpoint(eng, &p, net, fabric.NodeID(i)).CRMA
	}
	r.crma = r.donors[0]
	win, err := r.crma.Map(chainWin, chainWinSize, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	r.win = win
	r.export[1] = r.donors[1].Export(0, chainWin, chainWinSize, 0)
	dev := &FixedLatencyDevice{DevName: "dev", P: &p, Latency: 20 * sim.Microsecond, MBps: 2000}
	r.paged = NewPaged(&p, 4, dev)
	for _, reg := range []*Region{
		{Base: chainWin, Size: chainWinSize, Backend: &CRMARemote{CRMA: r.crma, Donor: 1}},
		{Base: chainDRAM, Size: chainDRAMSz, Backend: &LocalDRAM{P: &p}},
		{Base: chainPaged, Size: chainPagedSz, Backend: r.paged},
	} {
		if err := r.h.AS.Add(reg); err != nil {
			tb.Fatal(err)
		}
	}
	return r
}

// kill revokes the window with no replacement: its pending accesses
// complete at once, and later ones complete as poison.
func (r *chainRig) kill() { r.crma.KillWindow(chainWin, chainWinSize) }

// retarget moves the window to the other donor, as lease failover does:
// the old donor forgets its export, so requests it has not answered are
// dropped there and complete only when their replay's answer lands.
func (r *chainRig) retarget() {
	next := 3 - r.donor
	r.donors[r.donor].Unmap(r.export[r.donor])
	r.export[next] = r.donors[next].Export(0, chainWin, chainWinSize, 0)
	r.crma.Retarget(r.win, next, 0)
	r.crma.ReplayWindow(chainWin, chainWinSize)
	r.donor = next
}

// chainOpSize is the bytes one op takes from FuzzAccessChain's stream.
const chainOpSize = 7

// maxChainOps bounds the ops one input runs.
const maxChainOps = 48

// chainOp is one decoded op: a proc's read or write of size bytes at
// off into the rig's span, or a kill or retarget of the window after
// delay; think is the local work the proc does after it.
type chainOp struct {
	kind  byte // 0 read, 1 write, 2 kill, 3 retarget
	off   uint64
	size  int
	delay sim.Dur
	think byte
}

// decodeChainOps splits in into per-proc op lists. Each op's first
// byte picks its kind (reads and writes three times as often as kills
// and retargets) and its proc; the next three bytes its offset, the
// next two its size, 1 B to 4 KiB, or for a kill or retarget its delay
// in nanoseconds; the last its think time.
func decodeChainOps(in []byte, procs int) [][]chainOp {
	script := make([][]chainOp, procs)
	for n := 0; len(in) >= chainOpSize && n < maxChainOps; n++ {
		o := in[:chainOpSize]
		in = in[chainOpSize:]
		op := chainOp{kind: o[0] % 8 / 3, think: o[6]}
		if o[0]%8 == 7 {
			op.kind = 3
		}
		x := binary.LittleEndian.Uint16(o[4:6])
		if op.kind < 2 {
			op.size = 1 + int(x)%4096
			off := uint64(o[1]) | uint64(o[2])<<8 | uint64(o[3])<<16
			op.off = off % (chainSpan - uint64(op.size) + 1)
		} else {
			op.delay = sim.Dur(x)
		}
		who := int(o[0]>>3) % procs
		script[who] = append(script[who], op)
	}
	return script
}

// chainMark is the clock and the count of events fired when one access
// returned, and which proc made it.
type chainMark struct {
	proc  int
	at    sim.Time
	fired uint64
}

// chainResult is everything FuzzAccessChain compares between two runs.
type chainResult struct {
	marks []chainMark
	end   chainMark
	hier  HierarchyStats
	cache CacheStats
	crma  [3]transport.CRMAStats
	swap  SwapStats
}

// runChain runs script on a fresh rig, each proc's ops in order, the
// accesses through Read and Write or, with ref, through refAccess.
func runChain(t *testing.T, mshrs int, script [][]chainOp, ref bool) chainResult {
	r := newChainRig(t, mshrs)
	var res chainResult
	for who, ops := range script {
		r.eng.Go("cpu", func(p *sim.Proc) {
			for _, op := range ops {
				switch {
				case op.kind == 2:
					r.eng.Schedule(op.delay, r.kill)
					continue
				case op.kind == 3:
					r.eng.Schedule(op.delay, r.retarget)
					continue
				case ref:
					if op.kind == 1 {
						r.h.Stats.Writes++
					} else {
						r.h.Stats.Reads++
					}
					refAccess(r.h, p, chainWin+op.off, op.size, op.kind == 1)
				case op.kind == 1:
					r.h.Write(p, chainWin+op.off, op.size)
				default:
					r.h.Read(p, chainWin+op.off, op.size)
				}
				res.marks = append(res.marks, chainMark{who, r.eng.Now(), r.eng.Fired()})
				if op.think%4 == 0 {
					r.h.Flush(p)
				} else {
					r.h.Think(p, sim.Dur(op.think)*20*sim.Nanosecond)
				}
			}
		})
	}
	r.eng.Run()
	if n := r.eng.LiveProcs(); n != 0 {
		t.Fatalf("%d procs still parked once the queue drained", n)
	}
	res.end = chainMark{at: r.eng.Now(), fired: r.eng.Fired()}
	res.hier, res.cache, res.swap = r.h.Stats, r.h.Cache.Stats, r.paged.Stats
	for i, c := range r.donors {
		res.crma[i] = c.Stats
	}
	return res
}

// FuzzAccessChain holds the hierarchy's event-chain MSHR loop to the
// proc-only loop it replaced (refAccess). The input's first byte picks
// the MSHR count, its second 1 to 3 procs sharing one hierarchy, and
// the rest their ops (decodeChainOps): reads and writes of 1 B to 4 KiB
// at any offset of a CRMA window, the local DRAM after it and a Paged
// region after that, with think times between them, and a kill or a
// retarget of the window at some instant. Two identically built rigs
// run the ops, one through Read and Write and one through refAccess;
// every access must return at the same instant with the same count of
// events fired, and the hierarchy's, cache's, CRMA channels' and
// pager's counters must match at the end. The seed corpus under
// testdata/fuzz/FuzzAccessChain covers each MSHR count, dirty victims,
// two procs, an access spanning regions, a hand-over to the process at
// a Paged line, a dead window and a retarget; plain go test replays it.
func FuzzAccessChain(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		mshrs := chainMSHRs[int(in[0])%len(chainMSHRs)]
		script := decodeChainOps(in[2:], 1+int(in[1])%3)
		want := runChain(t, mshrs, script, true)
		got := runChain(t, mshrs, script, false)
		if !slices.Equal(got.marks, want.marks) {
			for i := range min(len(got.marks), len(want.marks)) {
				if got.marks[i] != want.marks[i] {
					t.Fatalf("access %d returned %+v, want %+v", i, got.marks[i], want.marks[i])
				}
			}
			t.Fatalf("%d accesses returned, want %d", len(got.marks), len(want.marks))
		}
		got.marks, want.marks = nil, nil
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("chain ended with\n %+v\nwant\n %+v", got, want)
		}
	})
}
