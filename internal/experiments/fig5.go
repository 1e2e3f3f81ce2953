package experiments

import (
	"repro/internal/harness"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workloads"
)

// fig5Config names the five §4.2 configurations.
var fig5Configs = []string{
	"off-chip qpair", "on-chip qpair", "async on-chip qpair",
	"off-chip crma", "on-chip crma",
}

// Fig5Result reproduces Fig. 5: relative performance of remote-memory
// access designs, normalized to all memory local. Lower is better.
type Fig5Result struct {
	Configs    []string
	PageRank   []float64
	BerkeleyDB []float64
	Table      Table
}

// fig5Opts selects one configuration's knobs.
type fig5Opts struct {
	useQPair bool
	offChip  bool
	window   int // QPair client pipelining (async style)
	router   bool
}

func optsFor(config string, router bool) fig5Opts {
	o := fig5Opts{router: router, window: 1}
	switch config {
	case "off-chip qpair":
		o.useQPair, o.offChip = true, true
	case "on-chip qpair":
		o.useQPair = true
	case "async on-chip qpair":
		o.useQPair = true
		o.window = 16
	case "off-chip crma":
		o.offChip = true
	case "on-chip crma":
	}
	return o
}

// fig5Rig builds the two-node setup with the requested interface
// placement and optional external router.
func fig5Rig(o fig5Opts, seed uint64) *pairRig {
	p := sim.Default()
	rig := newPair(&p, seed)
	if o.offChip {
		rig.Net.Switch(0).SetOffChip(true)
		rig.Net.Switch(1).SetOffChip(true)
	}
	if o.router {
		rig.Net.InsertRouter(0, 1)
	}
	return rig
}

// mapWindow maps the requester's CRMA window [win, win+size) onto the
// donor's memory at donorBase: the requester's RAMT entry and the
// donor's export, wired by hand with no MN in the loop.
func mapWindow(rig *pairRig, win, size, donorBase uint64) {
	if _, err := rig.Local.EP.CRMA.Map(win, size, 1, donorBase); err != nil {
		panic(err)
	}
	rig.Donor.EP.CRMA.Export(0, win, size, donorBase)
}

// mountCRMA maps [win, win+size) onto the donor at 0x1000_0000 and adds
// it to the requester's hierarchy as a CRMA-backed region.
func mountCRMA(rig *pairRig, win, size uint64) {
	mapWindow(rig, win, size, 0x1000_0000)
	mustAdd(rig, &memsys.Region{Base: win, Size: size,
		Backend: &memsys.CRMARemote{CRMA: rig.Local.EP.CRMA, Donor: 1}})
}

// mountSwap mounts a paged region of size bytes at base whose pages
// beyond the resident set swap to the donor's memory over the RDMA
// channel (the remote-swap block device, §5.2.1).
func mountSwap(rig *pairRig, base, size uint64, resident int) {
	dev := &memsys.RemoteSwap{P: rig.P, RDMA: rig.Local.EP.RDMA, Donor: 1, Base: 0x1000_0000}
	mustAdd(rig, &memsys.Region{Base: base, Size: size, Backend: memsys.NewPaged(rig.P, resident, dev)})
}

// mountWindow mounts a fresh CRMA window of size bytes and returns its
// base.
func mountWindow(rig *pairRig, size uint64) uint64 {
	win := rig.Local.NextHotplugWindow(size)
	mountCRMA(rig, win, size)
	return win
}

// fig5BDB measures the BerkeleyDB workload under one configuration (or
// the all-local baseline when config is empty). The record heap lives on
// the remote node; the index is client-local, as in the paper's setup
// ("the key is used to look up the address of the corresponding
// record"; "the server stores the records in remote memory").
func fig5BDB(config string, router bool, seed uint64) sim.Dur {
	const recordsBytes = uint64(bdbKeysFig5 * bdbRecordSize)
	var elapsed sim.Dur
	if config == "" { // all-local baseline
		rig := fig5Rig(fig5Opts{}, seed)
		defer rig.close()
		rig.run("bdb-local", func(pr *sim.Proc) {
			kv := workloads.BuildBTree(pr, rig.Local.Mem,
				workloads.NewArena(0, 256<<20), workloads.NewArena(256<<20, 512<<20),
				bdbKeysFig5, bdbRecordSize, bdbFanout)
			rng := sim.NewRNG(88)
			kv.OLTPMix(pr, rng, 40)
			t0 := pr.Now()
			kv.OLTPMix(pr, rng, bdbTxnsFig5)
			rig.Local.Mem.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
		return elapsed
	}
	o := optsFor(config, router)
	rig := fig5Rig(o, seed)
	defer rig.close()
	if o.useQPair {
		qa, qb := transport.ConnectQPair(rig.Local.EP, rig.Donor.EP, transport.QPairConfig{})
		// The donor-side server handles each query in BDB's software
		// stack before touching its memory.
		workloads.ServeKV(rig.Eng, "bdb-server",
			&workloads.DataServer{H: rig.Donor.Mem, QP: qb, Think: 8 * sim.Microsecond})
		rig.run("bdb-"+config, func(pr *sim.Proc) {
			idx := workloads.BuildBTreeIndex(pr, rig.Local.Mem,
				workloads.NewArena(0, 256<<20), workloads.NewArena(0x1000_0000, 512<<20),
				bdbKeysFig5, bdbRecordSize, bdbFanout)
			rkv := &workloads.RemoteKV{Index: idx, QP: qa}
			rng := sim.NewRNG(88)
			rkv.OLTPMix(pr, rng, 40)
			t0 := pr.Now()
			// BerkeleyDB transactions are dependent, so the asynchronous
			// rewrite gains nothing (§4.2.1) — both run synchronously.
			rkv.OLTPMix(pr, rng, bdbTxnsFig5)
			elapsed = pr.Now().Sub(t0)
			rkv.Close(pr)
		})
		return elapsed
	}
	// CRMA: records in the mapped window, index local.
	rig.run("bdb-"+config, func(pr *sim.Proc) {
		win := mountWindow(rig, recordsBytes+(64<<20))
		kv := workloads.BuildBTree(pr, rig.Local.Mem,
			workloads.NewArena(0, 256<<20), workloads.NewArena(win, recordsBytes+(64<<20)),
			bdbKeysFig5, bdbRecordSize, bdbFanout)
		rng := sim.NewRNG(88)
		kv.OLTPMix(pr, rng, 40)
		t0 := pr.Now()
		kv.OLTPMix(pr, rng, bdbTxnsFig5)
		rig.Local.Mem.Flush(pr)
		elapsed = pr.Now().Sub(t0)
	})
	return elapsed
}

// fig5PR measures PageRank under one configuration (empty = all-local).
// The edge array lives on the remote node; row offsets and ranks stay
// local.
func fig5PR(config string, router bool, seed uint64) sim.Dur {
	var elapsed sim.Dur
	buildGraph := func() *workloads.Graph {
		return workloads.GenUniform(sim.NewRNG(4), prVertices, prDegree)
	}
	if config == "" {
		rig := fig5Rig(fig5Opts{}, seed)
		defer rig.close()
		g := buildGraph()
		g.Place(workloads.NewArena(0, 16<<20), workloads.NewArena(16<<20, 64<<20),
			workloads.NewArena(96<<20, 16<<20))
		rig.run("pr-local", func(pr *sim.Proc) {
			workloads.PageRank(pr, rig.Local.Mem, g, 1) // warm
			t0 := pr.Now()
			workloads.PageRank(pr, rig.Local.Mem, g, prIters)
			rig.Local.Mem.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
		return elapsed
	}
	o := optsFor(config, router)
	rig := fig5Rig(o, seed)
	defer rig.close()
	g := buildGraph()
	if o.useQPair {
		g.Place(workloads.NewArena(0, 16<<20), workloads.NewArena(0x1000_0000, 64<<20),
			workloads.NewArena(96<<20, 16<<20))
		qa, qb := transport.ConnectQPair(rig.Local.EP, rig.Donor.EP, transport.QPairConfig{})
		workloads.ServeKV(rig.Eng, "edge-server",
			&workloads.DataServer{H: rig.Donor.Mem, QP: qb, Think: 500 * sim.Nanosecond})
		rig.run("pr-"+config, func(pr *sim.Proc) {
			workloads.PageRankQPair(pr, rig.Local.Mem, g, qa, 1, o.window) // warm
			t0 := pr.Now()
			workloads.PageRankQPair(pr, rig.Local.Mem, g, qa, prIters, o.window)
			elapsed = pr.Now().Sub(t0)
			workloads.CloseServer(pr, qa)
		})
		return elapsed
	}
	rig.run("pr-"+config, func(pr *sim.Proc) {
		win := mountWindow(rig, 256<<20)
		g.Place(workloads.NewArena(0, 16<<20), workloads.NewArena(win, 256<<20),
			workloads.NewArena(96<<20, 16<<20))
		workloads.PageRank(pr, rig.Local.Mem, g, 1) // warm
		t0 := pr.Now()
		workloads.PageRank(pr, rig.Local.Mem, g, prIters)
		rig.Local.Mem.Flush(pr)
		elapsed = pr.Now().Sub(t0)
	})
	return elapsed
}

// Seeds for the two workloads' rig streams, unchanged from the
// sequential code so the calibrated results are bit-identical.
const (
	fig5SeedBDB = 55
	fig5SeedPR  = 56
)

// fig5Trial builds the trial for one workload × config × routing cell.
func fig5Trial(id, config string, router bool, pagerank bool) harness.Trial {
	if pagerank {
		return harness.Trial{ID: id, Seed: fig5SeedPR,
			Run: durTrial(func(seed uint64) sim.Dur { return fig5PR(config, router, seed) })}
	}
	return harness.Trial{ID: id, Seed: fig5SeedBDB,
		Run: durTrial(func(seed uint64) sim.Dur { return fig5BDB(config, router, seed) })}
}

// fig5Spec decomposes the figure: an all-local baseline per workload
// plus one trial per configuration × workload.
func fig5Spec() harness.Spec {
	trials := []harness.Trial{
		fig5Trial("pagerank/all-local", "", false, true),
		fig5Trial("bdb/all-local", "", false, false),
	}
	for _, c := range fig5Configs {
		trials = append(trials,
			fig5Trial("pagerank/"+c, c, false, true),
			fig5Trial("bdb/"+c, c, false, false))
	}
	return harness.Spec{
		Title:    "Fig. 5 — remote-memory access designs vs all-local",
		Trials:   trials,
		Assemble: assembleFig5,
	}
}

// assembleFig5 normalizes each configuration to its workload's
// all-local baseline.
func assembleFig5(r *harness.Result) (harness.Artifact, error) {
	prBase := trialDur(r, "pagerank/all-local")
	bdbBase := trialDur(r, "bdb/all-local")
	res := &Fig5Result{
		Configs: fig5Configs,
		Table: Table{
			Title:   "Fig. 5 — exec time normalized to all-local memory (lower is better)",
			Columns: []string{"config", "PageRank", "paper", "BerkeleyDB", "paper"},
		},
	}
	paperPR := []string{"7.69", "5.96", "3.12", "3.01", "2.12"}
	paperBDB := []string{"11.92", "10.91", "10.83", "3.43", "2.48"}
	for i, c := range fig5Configs {
		pr := float64(trialDur(r, "pagerank/"+c)) / float64(prBase)
		bdb := float64(trialDur(r, "bdb/"+c)) / float64(bdbBase)
		res.PageRank = append(res.PageRank, pr)
		res.BerkeleyDB = append(res.BerkeleyDB, bdb)
		res.Table.AddRow(c, f2(pr), paperPR[i], f2(bdb), paperBDB[i])
	}
	return res, nil
}

// String renders the figure's table.
func (r *Fig5Result) String() string { return r.Table.String() }

// Fig6Result reproduces Fig. 6: the added overhead of a one-level
// external router between the two nodes, per configuration.
type Fig6Result struct {
	Configs    []string
	PageRank   []float64 // percent overhead
	BerkeleyDB []float64
	Table      Table
}

// fig6Paper maps each configuration to the paper's reported overheads.
var fig6Paper = map[string][2]string{
	"off-chip qpair":      {"11.70%", "7.66%"},
	"on-chip qpair":       {"13.42%", "7.33%"},
	"async on-chip qpair": {"2.02%", "7.39%"},
	"off-chip crma":       {"13.92%", "11.08%"},
	"on-chip crma":        {"22.72%", "16.13%"},
}

// fig6Spec decomposes the router study: direct and routed trials per
// configuration × workload. A subset of configurations may be selected
// (the short-mode matrix).
func fig6Spec(configs []string) harness.Spec {
	var trials []harness.Trial
	for _, c := range configs {
		trials = append(trials,
			fig5Trial("pagerank/"+c+"/direct", c, false, true),
			fig5Trial("pagerank/"+c+"/router", c, true, true),
			fig5Trial("bdb/"+c+"/direct", c, false, false),
			fig5Trial("bdb/"+c+"/router", c, true, false))
	}
	return harness.Spec{
		Title:  "Fig. 6 — one-level external router overhead",
		Trials: trials,
		Assemble: func(r *harness.Result) (harness.Artifact, error) {
			return assembleFig6(r, configs)
		},
	}
}

// assembleFig6 computes each configuration's routed-vs-direct overhead.
func assembleFig6(r *harness.Result, configs []string) (harness.Artifact, error) {
	res := &Fig6Result{
		Configs: configs,
		Table: Table{
			Title:   "Fig. 6 — performance overhead with a one-level router",
			Columns: []string{"config", "PageRank", "paper", "BerkeleyDB", "paper"},
		},
	}
	for _, c := range configs {
		prDirect := trialDur(r, "pagerank/"+c+"/direct")
		prRouted := trialDur(r, "pagerank/"+c+"/router")
		bdbDirect := trialDur(r, "bdb/"+c+"/direct")
		bdbRouted := trialDur(r, "bdb/"+c+"/router")
		prOv := 100 * (float64(prRouted) - float64(prDirect)) / float64(prDirect)
		bdbOv := 100 * (float64(bdbRouted) - float64(bdbDirect)) / float64(bdbDirect)
		res.PageRank = append(res.PageRank, prOv)
		res.BerkeleyDB = append(res.BerkeleyDB, bdbOv)
		paper := fig6Paper[c]
		res.Table.AddRow(c, pct(prOv), paper[0], pct(bdbOv), paper[1])
	}
	return res, nil
}

// String renders the figure's table.
func (r *Fig6Result) String() string { return r.Table.String() }
