package experiments

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Table1 renders the platform configuration (the simulator's calibrated
// defaults against the paper's Table 1).
func Table1() Table {
	p := sim.Default()
	t := Table{
		Title:   "Table 1 — platform configuration (simulator defaults vs paper)",
		Columns: []string{"parameter", "value", "paper"},
	}
	t.AddRow("system", "8 nodes, 3D mesh (2x2x2)", "8 nodes, 3D mesh")
	t.AddRow("processor", fmt.Sprintf("%.3f GHz in-order model", p.CPUGHz), "ARM Cortex-A9, 667 MHz")
	t.AddRow("memory", "1 GB per node (default)", "1 GB SODIMM (active)")
	t.AddRow("p2p latency", p.HopLatency().String(), "1.4 µs")
	t.AddRow("bandwidth", fmt.Sprintf("%.0f Gbps x %d", p.LinkGbps, p.LinkPorts), "5 Gbps x 6")
	t.AddRow("page size", fmt.Sprintf("%d B", p.PageBytes), "4 KB (Linux)")
	t.AddRow("LLC", fmt.Sprintf("%d KiB, %d-way", p.CacheBytes>>10, p.CacheWays), "(Zynq PL310 class)")
	return t
}

// CostTable renders the §7.3 hardware cost analysis.
func CostTable() Table {
	t := Table{
		Title:   "§7.3 — hardware cost (28 nm, 1 GHz typical corner)",
		Columns: []string{"block", "area mm²", "SRAM KB", "kLUTs"},
	}
	for _, b := range cost.Blocks() {
		t.AddRow(b.Name, fmt.Sprintf("%.2f", b.AreaMM2),
			fmt.Sprintf("%.0f", b.SRAMKB), fmt.Sprintf("%.0f", b.KLUTs))
	}
	area, sram := cost.Totals()
	t.AddRow("total logic", fmt.Sprintf("%.2f", area), fmt.Sprintf("%.0f", sram), "")
	t.AddRow("PHYs", fmt.Sprintf("%.1f", cost.PHYTotalMM2()), "", "")
	t.AddRow("share of 300mm² die", pct(100*cost.ChipFraction(cost.HaswellEP8CoreMM2)), "", "")
	lut, sramDelta := cost.QPairVsCRMA()
	t.AddRow("QPair/CRMA logic", fmt.Sprintf("%.1fx", lut), fmt.Sprintf("+%.0f", sramDelta), "")
	return t
}

// ValidationResult reproduces the §4.2 validation: the prototype's
// wall-clock times are consistently about 1/16th those of an Intel Xeon
// E5620 reference (within 10%). We run the same workload mix under the
// prototype parameters and the Xeon parameter set and report the ratio.
type ValidationResult struct {
	Workloads []string
	Ratios    []float64
	Table     Table
}

// validationRun measures one workload under a parameter set.
func validationRun(name string, p sim.Params, seed uint64) sim.Dur {
	rig := newPair(&p, seed)
	defer rig.close()
	var elapsed sim.Dur
	switch name {
	case "bdb":
		rig.run("v-bdb", func(pr *sim.Proc) {
			arena := workloads.NewArena(0, 256<<20)
			kv := workloads.BuildBTree(pr, rig.Local.Mem, arena, arena, 50000, 64, 16)
			rng := sim.NewRNG(3)
			t0 := pr.Now()
			kv.OLTPMix(pr, rng, 300)
			rig.Local.Mem.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
	case "grep":
		rig.run("v-grep", func(pr *sim.Proc) {
			pattern := []byte("xeon")
			text := workloads.SynthText(sim.NewRNG(4), 8<<20, pattern, 8192)
			t0 := pr.Now()
			workloads.Grep(pr, rig.Local.Mem, 0, text, pattern)
			rig.Local.Mem.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
	case "pagerank":
		g := workloads.GenUniform(sim.NewRNG(5), 20000, 6)
		g.Place(workloads.NewArena(0, 8<<20), workloads.NewArena(8<<20, 32<<20),
			workloads.NewArena(48<<20, 8<<20))
		rig.run("v-pr", func(pr *sim.Proc) {
			t0 := pr.Now()
			workloads.PageRank(pr, rig.Local.Mem, g, 1)
			rig.Local.Mem.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
	}
	return elapsed
}

// validationWorkloads is the §4.2 workload mix; validationSeed the rig
// stream.
var validationWorkloads = []string{"bdb", "grep", "pagerank"}

const validationSeed = 90

// validationSpec decomposes the check into one trial per workload ×
// parameter set.
func validationSpec() harness.Spec {
	var trials []harness.Trial
	for _, n := range validationWorkloads {
		for _, ps := range []struct {
			name   string
			params func() sim.Params
		}{{"proto", sim.Default}, {"xeon", sim.Xeon}} {
			trials = append(trials, harness.Trial{
				ID: n + "/" + ps.name, Seed: validationSeed,
				Run: durTrial(func(seed uint64) sim.Dur { return validationRun(n, ps.params(), seed) }),
			})
		}
	}
	return harness.Spec{
		Title:    "§4.2 validation — prototype vs Xeon-class parameters",
		Trials:   trials,
		Assemble: assembleValidation,
	}
}

// assembleValidation computes the prototype/Xeon ratio per workload.
func assembleValidation(r *harness.Result) (harness.Artifact, error) {
	res := &ValidationResult{
		Workloads: validationWorkloads,
		Table: Table{
			Title:   "§4.2 validation — prototype time / Xeon-class time (paper: ~16x, ±10%)",
			Columns: []string{"workload", "ratio"},
		},
	}
	for _, n := range validationWorkloads {
		proto := trialDur(r, n+"/proto")
		xeon := trialDur(r, n+"/xeon")
		ratio := float64(proto) / float64(xeon)
		res.Ratios = append(res.Ratios, ratio)
		res.Table.AddRow(n, fmt.Sprintf("%.1fx", ratio))
	}
	return res, nil
}

// String renders the validation table.
func (r *ValidationResult) String() string { return r.Table.String() }

// table1Spec and costSpec wrap the two purely tabular artifacts: no
// measurements, so no trials — assembly renders directly.
func table1Spec() harness.Spec {
	return harness.Spec{
		Title: "Table 1 — platform configuration",
		Assemble: func(*harness.Result) (harness.Artifact, error) {
			return Table1(), nil
		},
	}
}

func costSpec() harness.Spec {
	return harness.Spec{
		Title: "§7.3 — hardware cost analysis",
		Assemble: func(*harness.Result) (harness.Artifact, error) {
			return CostTable(), nil
		},
	}
}
