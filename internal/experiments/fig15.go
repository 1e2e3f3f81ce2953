package experiments

import (
	"repro/internal/harness"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Fig15Result reproduces Fig. 15: remote memory accessed directly
// (CRMA) or as swap space (RDMA) with 75% of the working set remote,
// for four workloads, normalized to swapping to local storage. Higher
// is better.
type Fig15Result struct {
	Workloads []string
	AllLocal  []float64
	CRMA      []float64
	RDMA      []float64
	Table     Table
}

// fig15Mode selects the memory configuration.
type fig15Mode int

const (
	modeLocalSwap fig15Mode = iota // baseline: 25% resident, local disk
	modeAllLocal                   // ideal: everything in local DRAM
	modeCRMA                       // 25% local region + 75% CRMA window
	modeRDMASwap                   // 25% resident, remote-memory block device
)

// fig15Region mounts the data range for a mode and returns its base.
func fig15Region(rig *pairRig, mode fig15Mode, size uint64) uint64 {
	base := rig.Local.NextHotplugWindow(size)
	resident := int(float64(size) * fig15LocalFrac / float64(rig.P.PageBytes))
	if resident < 4 {
		resident = 4
	}
	switch mode {
	case modeAllLocal:
		mustAdd(rig, &memsys.Region{Base: base, Size: size,
			Backend: &memsys.LocalDRAM{P: rig.P}})
	case modeLocalSwap:
		paged := memsys.NewPaged(rig.P, resident, memsys.LocalDisk(rig.P))
		mustAdd(rig, &memsys.Region{Base: base, Size: size, Backend: paged})
	case modeRDMASwap:
		mountSwap(rig, base, size, resident)
	case modeCRMA:
		localPart := uint64(float64(size) * fig15LocalFrac)
		localPart &^= uint64(rig.P.PageBytes - 1)
		mustAdd(rig, &memsys.Region{Base: base, Size: localPart,
			Backend: &memsys.LocalDRAM{P: rig.P}})
		mountCRMA(rig, base+localPart, size-localPart)
	}
	return base
}

// initRegion materializes a data range the way a loader would: one
// streaming write pass. Under swap modes this dirties and eventually
// writes every page to the device, so later faults do real device reads
// (no zero-fill shortcut).
func initRegion(pr *sim.Proc, rig *pairRig, base, size uint64) {
	for off := uint64(0); off < size; off += 4096 {
		chunk := size - off
		if chunk > 4096 {
			chunk = 4096
		}
		rig.Local.Mem.Write(pr, base+off, int(chunk))
	}
	rig.Local.Mem.Flush(pr)
}

// fig15Workload runs one workload over a data range of the given mode
// and returns its measured time.
func fig15Workload(name string, mode fig15Mode, seed uint64) sim.Dur {
	p := sim.Default()
	// The prototype's Linux swap path on the 667 MHz A9 is far heavier
	// than the x86 default used elsewhere; calibrated against the
	// paper's Fig. 15 RDMA-vs-local-swap gap (EXPERIMENTS.md, "Fig. 15",
	// records where it lands).
	p.PageFaultSW = 400 * sim.Microsecond
	rig := newPair(&p, seed)
	defer rig.close()
	var elapsed sim.Dur
	switch name {
	default:
		// An unmatched name would otherwise measure 0ns and poison the
		// normalization with NaN; the executor turns this into a trial
		// error.
		panic("fig15: unknown workload " + name)
	case "inmem-db":
		size := uint64(bdbKeysFig15*(bdbRecordSize+2*entryBytesScaled)) + (1 << 20)
		base := fig15Region(rig, mode, size)
		rig.run("db", func(pr *sim.Proc) {
			arena := workloads.NewArena(base, size)
			kv := workloads.BuildBTree(pr, rig.Local.Mem, arena, arena,
				bdbKeysFig15, bdbRecordSize, bdbFanout)
			rng := sim.NewRNG(7)
			kv.OLTPMix(pr, rng, 30)
			t0 := pr.Now()
			kv.OLTPMix(pr, rng, bdbTxnsFig15)
			rig.Local.Mem.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
	case "cc":
		g := workloads.GenUniform(sim.NewRNG(8), ccVertices, ccDegree)
		size := uint64(g.Edges()*4+g.N*12) + (64 << 10)
		base := fig15Region(rig, mode, size)
		rig.run("cc", func(pr *sim.Proc) {
			arena := workloads.NewArena(base, size)
			g.Place(arena, arena, arena)
			initRegion(pr, rig, base, size)
			t0 := pr.Now()
			workloads.ConnectedComponents(pr, rig.Local.Mem, g)
			rig.Local.Mem.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
	case "grep":
		size := uint64(grepBytes) + (64 << 10)
		base := fig15Region(rig, mode, size)
		rig.run("grep", func(pr *sim.Proc) {
			pattern := []byte("venice")
			text := workloads.SynthText(sim.NewRNG(9), grepBytes, pattern, 8192)
			initRegion(pr, rig, base, size)
			t0 := pr.Now()
			workloads.Grep(pr, rig.Local.Mem, base, text, pattern)
			rig.Local.Mem.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
	case "graph500":
		g := workloads.GenRMAT(sim.NewRNG(10), g500Scale, g500EdgeFactor)
		size := uint64(g.Edges()*4+g.N*12) + (64 << 10)
		base := fig15Region(rig, mode, size)
		rig.run("bfs", func(pr *sim.Proc) {
			arena := workloads.NewArena(base, size)
			g.Place(arena, arena, arena)
			initRegion(pr, rig, base, size)
			root := 0
			for u := range g.Deg {
				if g.Deg[u] > g.Deg[root] {
					root = u
				}
			}
			t0 := pr.Now()
			workloads.BFS(pr, rig.Local.Mem, g, root)
			rig.Local.Mem.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
	}
	return elapsed
}

// fig15Workloads is the figure's full workload matrix; fig15Paper holds
// the paper's reported values per workload (all-local, crma, rdma).
var (
	fig15Workloads = []string{"inmem-db", "cc", "grep", "graph500"}
	fig15Paper     = map[string][3]string{
		"inmem-db": {"403.8", "159.0", "3.30"},
		"cc":       {"1.13", "0.65", "1.10"},
		"grep":     {"2.48", "1.07", "2.07"},
		"graph500": {"6.90", "4.86", "3.22"},
	}
)

// fig15ModeNames label the four memory configurations in trial ids.
var fig15ModeNames = map[fig15Mode]string{
	modeLocalSwap: "local-swap",
	modeAllLocal:  "all-local",
	modeCRMA:      "crma",
	modeRDMASwap:  "rdma-swap",
}

// fig15Seed keeps every cell on the sequential code's rig stream.
const fig15Seed = 66

// fig15Spec decomposes the figure into one trial per workload × mode
// cell, over a selectable workload subset (the short-mode matrix).
func fig15Spec(workloads []string) harness.Spec {
	var trials []harness.Trial
	for _, n := range workloads {
		for _, mode := range []fig15Mode{modeLocalSwap, modeAllLocal, modeCRMA, modeRDMASwap} {
			trials = append(trials, harness.Trial{
				ID: n + "/" + fig15ModeNames[mode], Seed: fig15Seed,
				Run: durTrial(func(seed uint64) sim.Dur { return fig15Workload(n, mode, seed) }),
			})
		}
	}
	return harness.Spec{
		Title:  "Fig. 15 — direct (CRMA) vs swap (RDMA) remote memory",
		Trials: trials,
		Assemble: func(r *harness.Result) (harness.Artifact, error) {
			return assembleFig15(r, workloads)
		},
	}
}

// assembleFig15 normalizes each mode to the local-swap baseline.
func assembleFig15(r *harness.Result, workloads []string) (harness.Artifact, error) {
	res := &Fig15Result{
		Workloads: workloads,
		Table: Table{
			Title:   "Fig. 15 — performance normalized to local-swap baseline (higher is better), 75% remote",
			Columns: []string{"workload", "all-local", "paper", "crma", "paper", "rdma-swap", "paper"},
		},
	}
	for _, n := range workloads {
		baseline := fig15Workload2(r, n, modeLocalSwap)
		ideal := float64(baseline) / float64(fig15Workload2(r, n, modeAllLocal))
		crma := float64(baseline) / float64(fig15Workload2(r, n, modeCRMA))
		rdma := float64(baseline) / float64(fig15Workload2(r, n, modeRDMASwap))
		res.AllLocal = append(res.AllLocal, ideal)
		res.CRMA = append(res.CRMA, crma)
		res.RDMA = append(res.RDMA, rdma)
		paper := fig15Paper[n]
		res.Table.AddRow(n, f2(ideal), paper[0], f2(crma), paper[1], f2(rdma), paper[2])
	}
	return res, nil
}

// fig15Workload2 reads one cell's measured time back out of the result.
func fig15Workload2(r *harness.Result, name string, mode fig15Mode) sim.Dur {
	return trialDur(r, name+"/"+fig15ModeNames[mode])
}

// String renders the figure's table.
func (r *Fig15Result) String() string { return r.Table.String() }
