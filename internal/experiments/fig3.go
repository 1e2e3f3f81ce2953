package experiments

import (
	"repro/internal/commodity"
	"repro/internal/harness"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Fig3Result reproduces Fig. 3: remote memory efficiency with commodity
// interconnects (BerkeleyDB, 6 GB array scaled, 4 GB local scaled,
// 80/20 read-write, random), normalized to using all local memory.
type Fig3Result struct {
	Configs    []string
	Normalized []float64
	Table      Table
}

// fig3Dataset sizes the scaled experiment: dataset D with 2/3 D of local
// memory, mirroring the paper's 6 GB array on a 4 GB node.
func fig3Dataset() (datasetBytes, localBytes uint64) {
	// index + records for bdbKeysFig3 keys.
	per := uint64(bdbRecordSize + 2*entryBytesScaled)
	d := uint64(bdbKeysFig3) * per
	return d, d * 2 / 3
}

// entryBytesScaled mirrors workloads' index entry size for sizing math.
const entryBytesScaled = 16

// fig3Run measures one configuration's OLTP time.
//
// The swap configurations put the whole dataset behind the OS paging
// path with 2/3 of it resident (the kernel page-caches the device). The
// PCIe LD/ST configuration maps the whole dataset through an uncached
// PIO window — the commodity chip gives it no local caching at all,
// which is exactly why the paper calls its result crippling.
func fig3Run(config string, seed uint64) sim.Dur {
	p := sim.Default()
	rig := newPair(&p, seed)
	defer rig.close()

	dataset, local := fig3Dataset()
	base := rig.Local.NextHotplugWindow(dataset + (64 << 20))

	var arena *workloads.Arena
	switch config {
	case "all-local":
		arena = workloads.NewArena(0, dataset+(64<<20))
	case "pcie-ldst":
		dev := commodity.NewPCIeLDST(&p)
		mustAdd(rig, &memsys.Region{Base: base, Size: dataset + (64 << 20),
			Backend: dev, Uncached: true})
		arena = workloads.NewArena(base, dataset+(64<<20))
	default:
		var dev memsys.BlockDevice
		switch config {
		case "10gbe":
			dev = commodity.EthernetVDisk(&p)
		case "ib-srp":
			dev = commodity.InfiniBandSRP(&p)
		case "pcie-rdma":
			dev = commodity.PCIeRDMA(&p)
		}
		paged := memsys.NewPaged(&p, int(local)/p.PageBytes, dev)
		mustAdd(rig, &memsys.Region{Base: base, Size: dataset + (64 << 20), Backend: paged})
		arena = workloads.NewArena(base, dataset+(64<<20))
	}

	var elapsed sim.Dur
	rig.run("fig3-"+config, func(pr *sim.Proc) {
		idxArena := arena
		kv := workloads.BuildBTree(pr, rig.Local.Mem, idxArena, arena,
			bdbKeysFig3, bdbRecordSize, bdbFanout)
		rng := sim.NewRNG(77)
		kv.OLTPMix(pr, rng, 40) // warm the resident set / cache
		t0 := pr.Now()
		kv.OLTPMix(pr, rng, bdbTxnsFig3)
		rig.Local.Mem.Flush(pr)
		elapsed = pr.Now().Sub(t0)
	})
	return elapsed
}

func mustAdd(rig *pairRig, r *memsys.Region) {
	if err := rig.Local.Mem.AS.Add(r); err != nil {
		panic(err)
	}
}

// fig3Configs are the four remote configurations of the study.
var fig3Configs = []string{"10gbe", "ib-srp", "pcie-rdma", "pcie-ldst"}

// fig3Seed keeps every cell on the rig stream the sequential code used.
const fig3Seed = 33

// fig3Spec decomposes the figure into one trial per configuration plus
// the all-local baseline.
func fig3Spec() harness.Spec {
	trials := []harness.Trial{{
		ID: "all-local", Seed: fig3Seed,
		Run: durTrial(func(seed uint64) sim.Dur { return fig3Run("all-local", seed) }),
	}}
	for _, c := range fig3Configs {
		trials = append(trials, harness.Trial{
			ID: c, Seed: fig3Seed,
			Run: durTrial(func(seed uint64) sim.Dur { return fig3Run(c, seed) }),
		})
	}
	return harness.Spec{
		Title:    "Fig. 3 — remote memory over commodity interconnects",
		Trials:   trials,
		Assemble: assembleFig3,
	}
}

// assembleFig3 normalizes each configuration to the all-local baseline.
func assembleFig3(r *harness.Result) (harness.Artifact, error) {
	baseline := trialDur(r, "all-local")
	res := &Fig3Result{
		Configs: fig3Configs,
		Table: Table{
			Title:   "Fig. 3 — remote memory over commodity interconnects (exec time / all-local)",
			Columns: []string{"config", "normalized", "paper"},
		},
	}
	paper := map[string]string{"10gbe": "42", "ib-srp": "19", "pcie-rdma": "12", "pcie-ldst": "191"}
	for _, c := range fig3Configs {
		n := float64(trialDur(r, c)) / float64(baseline)
		res.Normalized = append(res.Normalized, n)
		res.Table.AddRow(c, f1(n), paper[c])
	}
	return res, nil
}

// String renders the figure's table.
func (r *Fig3Result) String() string { return r.Table.String() }
