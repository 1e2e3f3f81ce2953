package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workloads"
)

// Ablations sweep four design choices behind the headline results (the
// MSHR count, swap readahead, the QPair credit window and the transfer
// granularity) to show how much each contributes; EXPERIMENTS.md,
// "Ablations", records the findings. They are exploratory (the paper
// does not report them) but use only the paper's machinery.

// Seeds for the four ablations' rig streams, unchanged from the
// sequential code.
const (
	ablationSeedMSHR        = 91
	ablationSeedReadahead   = 92
	ablationSeedWindow      = 93
	ablationSeedGranularity = 94
)

// ablationMSHRs is the full MSHR sweep; ablationMSHRsShort the reduced
// short-mode matrix (keeps the blocking core, modest MLP, and the top).
var (
	ablationMSHRs      = []int{1, 2, 4, 8, 16}
	ablationMSHRsShort = []int{1, 4, 16}
)

// AblationMSHRResult sweeps the core's outstanding-miss budget: how much
// memory-level parallelism CRMA streaming needs before contiguous access
// stops being the channel's weakness (the Fig. 15/17 inversion).
type AblationMSHRResult struct {
	MSHRs []int
	Times []sim.Dur
	Table Table
}

// ablationMSHRRun measures a streaming grep over a CRMA window (4 KiB
// multi-line reads, the MSHR-sensitive shape) with one MSHR count.
func ablationMSHRRun(mshrs int, seed uint64) sim.Dur {
	p := sim.Default()
	p.MSHRs = mshrs
	rig := newPair(&p, seed)
	defer rig.close()
	const size = 8 << 20
	var elapsed sim.Dur
	rig.run("grep", func(pr *sim.Proc) {
		win := mountWindow(rig, size+(1<<20))
		pattern := []byte("venice")
		text := workloads.SynthText(sim.NewRNG(9), size, pattern, 8192)
		t0 := pr.Now()
		workloads.Grep(pr, rig.Local.Mem, win, text, pattern)
		rig.Local.Mem.Flush(pr)
		elapsed = pr.Now().Sub(t0)
	})
	return elapsed
}

// ablationMSHRSpec decomposes the sweep into one trial per MSHR count.
// The matrix must include the blocking core (mshr=1): it is the
// table's normalization baseline.
func ablationMSHRSpec(mshrs []int) harness.Spec {
	if len(mshrs) == 0 || mshrs[0] != 1 {
		panic("ablation-mshr: matrix must start at the mshr=1 baseline")
	}
	var trials []harness.Trial
	for _, m := range mshrs {
		trials = append(trials, harness.Trial{
			ID: fmt.Sprintf("mshr/%d", m), Seed: ablationSeedMSHR,
			Run: durTrial(func(seed uint64) sim.Dur { return ablationMSHRRun(m, seed) }),
		})
	}
	return harness.Spec{
		Title:  "Ablation — MSHRs vs streaming access over CRMA",
		Trials: trials,
		Assemble: func(r *harness.Result) (harness.Artifact, error) {
			res := &AblationMSHRResult{
				MSHRs: mshrs,
				Table: Table{
					Title:   "Ablation — MSHRs vs streaming access over CRMA (grep)",
					Columns: []string{"mshrs", "time", "vs mshr=1"},
				},
			}
			var base sim.Dur
			for _, m := range mshrs {
				elapsed := trialDur(r, fmt.Sprintf("mshr/%d", m))
				res.Times = append(res.Times, elapsed)
				if m == 1 {
					base = elapsed
				}
				res.Table.AddRow(fmt.Sprintf("%d", m), elapsed.String(),
					fmt.Sprintf("%.2fx", float64(base)/float64(elapsed)))
			}
			return res, nil
		},
	}
}

// String renders the ablation's table.
func (r *AblationMSHRResult) String() string { return r.Table.String() }

// AblationReadaheadResult sweeps the swap readahead window for a
// streaming workload over the remote-swap device.
type AblationReadaheadResult struct {
	Pages []int
	Times []sim.Dur
	Table Table
}

// ablationReadaheadPages is the readahead sweep.
var ablationReadaheadPages = []int{1, 4, 16, 64}

// ablationReadaheadRun measures grep over RDMA swap with one readahead
// window.
func ablationReadaheadRun(ra int, seed uint64) sim.Dur {
	p := sim.Default()
	p.ReadaheadPages = ra
	rig := newPair(&p, seed)
	defer rig.close()
	const size = 8 << 20
	baseAddr := fig15Region(rig, modeRDMASwap, size+(64<<10))
	var elapsed sim.Dur
	rig.run("grep", func(pr *sim.Proc) {
		pattern := []byte("venice")
		text := workloads.SynthText(sim.NewRNG(9), size, pattern, 8192)
		initRegion(pr, rig, baseAddr, size+(64<<10))
		t0 := pr.Now()
		workloads.Grep(pr, rig.Local.Mem, baseAddr, text, pattern)
		rig.Local.Mem.Flush(pr)
		elapsed = pr.Now().Sub(t0)
	})
	return elapsed
}

// ablationReadaheadSpec decomposes the sweep into one trial per window.
func ablationReadaheadSpec() harness.Spec {
	var trials []harness.Trial
	for _, ra := range ablationReadaheadPages {
		trials = append(trials, harness.Trial{
			ID: fmt.Sprintf("ra/%d", ra), Seed: ablationSeedReadahead,
			Run: durTrial(func(seed uint64) sim.Dur { return ablationReadaheadRun(ra, seed) }),
		})
	}
	return harness.Spec{
		Title:  "Ablation — swap readahead vs streaming grep",
		Trials: trials,
		Assemble: func(r *harness.Result) (harness.Artifact, error) {
			res := &AblationReadaheadResult{
				Pages: ablationReadaheadPages,
				Table: Table{
					Title:   "Ablation — swap readahead vs streaming grep over remote swap",
					Columns: []string{"readahead", "time", "vs 1 page"},
				},
			}
			var base sim.Dur
			for _, ra := range ablationReadaheadPages {
				elapsed := trialDur(r, fmt.Sprintf("ra/%d", ra))
				res.Times = append(res.Times, elapsed)
				if ra == 1 {
					base = elapsed
				}
				res.Table.AddRow(fmt.Sprintf("%d", ra), elapsed.String(),
					fmt.Sprintf("%.2fx", float64(base)/float64(elapsed)))
			}
			return res, nil
		},
	}
}

// String renders the ablation's table.
func (r *AblationReadaheadResult) String() string { return r.Table.String() }

// AblationWindowResult sweeps the QPair credit window under both credit
// paths: how much window the collaborative design saves.
type AblationWindowResult struct {
	Windows   []int
	QPairMBps []float64
	CRMAMBps  []float64
	Table     Table
}

// ablationWindows is the credit-window sweep.
var ablationWindows = []int{4, 8, 16, 32, 64}

// ablationWindowSpec decomposes the sweep into one trial per window ×
// credit path.
func ablationWindowSpec() harness.Spec {
	var trials []harness.Trial
	for _, w := range ablationWindows {
		for _, path := range []struct {
			name    string
			viaCRMA bool
		}{{"qpair", false}, {"crma", true}} {
			trials = append(trials, harness.Trial{
				ID: fmt.Sprintf("win%d/%s", w, path.name), Seed: ablationSeedWindow,
				Run: func(seed uint64) (harness.Values, error) {
					cfg := transport.QPairConfig{Window: w, CreditViaCRMA: path.viaCRMA}
					return harness.Values{"mbps": qpairStream(cfg, 64, 2000, seed)}, nil
				},
			})
		}
	}
	return harness.Spec{
		Title:  "Ablation — credit window vs stream bandwidth",
		Trials: trials,
		Assemble: func(r *harness.Result) (harness.Artifact, error) {
			res := &AblationWindowResult{
				Windows: ablationWindows,
				Table: Table{
					Title:   "Ablation — credit window vs 64B stream bandwidth for both credit paths",
					Columns: []string{"window", "qpair-credits MB/s", "crma-credits MB/s", "gain"},
				},
			}
			for _, w := range ablationWindows {
				qp := r.Val(fmt.Sprintf("win%d/qpair", w), "mbps")
				cr := r.Val(fmt.Sprintf("win%d/crma", w), "mbps")
				res.QPairMBps = append(res.QPairMBps, qp)
				res.CRMAMBps = append(res.CRMAMBps, cr)
				res.Table.AddRow(fmt.Sprintf("%d", w), f2(qp), f2(cr), pct(100*(cr-qp)/qp))
			}
			return res, nil
		},
	}
}

// String renders the ablation's table.
func (r *AblationWindowResult) String() string { return r.Table.String() }

// AblationGranularityResult finds the CRMA/RDMA crossover by transfer
// size — the data behind the adaptive library's Advise threshold.
type AblationGranularityResult struct {
	Sizes []int
	CRMA  []sim.Dur
	RDMA  []sim.Dur
	Table Table
}

// ablationGranularitySizes is the transfer-size sweep.
var ablationGranularitySizes = []int{64, 256, 1024, 4096, 16384, 65536}

// ablationGranularitySpec runs the whole sweep as one trial: every size
// is measured on the same warmed rig, so splitting would change the
// measured values.
func ablationGranularitySpec() harness.Spec {
	trial := harness.Trial{
		ID: "sweep", Seed: ablationSeedGranularity,
		Run: func(seed uint64) (harness.Values, error) {
			p := sim.Default()
			rig := newPair(&p, seed)
			defer rig.close()
			win := rig.Local.NextHotplugWindow(1 << 20)
			mapWindow(rig, win, 1<<20, 0x1000_0000)
			v := harness.Values{}
			rig.run("sweep", func(pr *sim.Proc) {
				for _, size := range ablationGranularitySizes {
					t0 := pr.Now()
					// CRMA moves data line by line (hardware fills,
					// MSHR-limited).
					for off := 0; off < size; off += p.CacheLine {
						rig.Local.EP.CRMA.Fill(pr, win+uint64(off), p.CacheLine)
					}
					v[fmt.Sprintf("crma/%d", size)] = float64(pr.Now().Sub(t0))
					t1 := pr.Now()
					rig.Local.EP.RDMA.Read(pr, 1, 0x1000_0000, size)
					v[fmt.Sprintf("rdma/%d", size)] = float64(pr.Now().Sub(t1))
				}
			})
			return v, nil
		},
	}
	return harness.Spec{
		Title:  "Ablation — transfer size vs channel latency",
		Trials: []harness.Trial{trial},
		Assemble: func(r *harness.Result) (harness.Artifact, error) {
			res := &AblationGranularityResult{
				Sizes: ablationGranularitySizes,
				Table: Table{
					Title:   "Ablation — transfer size vs channel latency (the Advise crossover)",
					Columns: []string{"size", "crma", "rdma", "winner"},
				},
			}
			for _, size := range ablationGranularitySizes {
				crma := sim.Dur(int64(r.Val("sweep", fmt.Sprintf("crma/%d", size))))
				rdma := sim.Dur(int64(r.Val("sweep", fmt.Sprintf("rdma/%d", size))))
				res.CRMA = append(res.CRMA, crma)
				res.RDMA = append(res.RDMA, rdma)
				winner := "CRMA"
				if rdma < crma {
					winner = "RDMA"
				}
				res.Table.AddRow(fmt.Sprintf("%dB", size), crma.String(), rdma.String(), winner)
			}
			return res, nil
		},
	}
}

// String renders the ablation's table.
func (r *AblationGranularityResult) String() string { return r.Table.String() }
