package experiments

import (
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workloads"
)

// Fig17Result reproduces Fig. 17: the multi-modality study — three
// access patterns, each run over each of the three channels, normalized
// to the best channel per pattern (=100). The paper's finding: none of
// the channels can efficiently replace another.
type Fig17Result struct {
	Patterns []string // in-mem DB random, CC contiguous, iperf messaging
	CRMA     []float64
	RDMA     []float64
	QPair    []float64
	Table    Table
}

// fig17DB measures random record access over one channel.
func fig17DB(channel transport.Channel, seed uint64) sim.Dur {
	p := sim.Default()
	rig := newPair(&p, seed)
	defer rig.close()
	const keys = 60000
	recBytes := uint64(keys * bdbRecordSize)
	var elapsed sim.Dur
	switch channel {
	case transport.ChanCRMA:
		rig.run("db-crma", func(pr *sim.Proc) {
			win := mountWindow(rig, recBytes+(8<<20))
			kv := workloads.BuildBTree(pr, rig.Local.Mem,
				workloads.NewArena(0, 64<<20), workloads.NewArena(win, recBytes+(8<<20)),
				keys, bdbRecordSize, bdbFanout)
			rng := sim.NewRNG(2)
			t0 := pr.Now()
			kv.OLTPMix(pr, rng, 200)
			rig.Local.Mem.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
	case transport.ChanRDMA:
		// Bulk channel used for fine-grained access: records reached
		// through the page-granular remote-swap device.
		rig.run("db-rdma", func(pr *sim.Proc) {
			base := rig.Local.NextHotplugWindow(recBytes + (8 << 20))
			mountSwap(rig, base, recBytes+(8<<20), int(recBytes/8)/p.PageBytes+4)
			kv := workloads.BuildBTree(pr, rig.Local.Mem,
				workloads.NewArena(0, 64<<20), workloads.NewArena(base, recBytes+(8<<20)),
				keys, bdbRecordSize, bdbFanout)
			rng := sim.NewRNG(2)
			t0 := pr.Now()
			kv.OLTPMix(pr, rng, 200)
			rig.Local.Mem.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
	case transport.ChanQPair:
		qa, qb := transport.ConnectQPair(rig.Local.EP, rig.Donor.EP, transport.QPairConfig{})
		workloads.ServeKV(rig.Eng, "srv",
			&workloads.DataServer{H: rig.Donor.Mem, QP: qb, Think: 8 * sim.Microsecond})
		rig.run("db-qpair", func(pr *sim.Proc) {
			idx := workloads.BuildBTreeIndex(pr, rig.Local.Mem,
				workloads.NewArena(0, 64<<20), workloads.NewArena(0x1000_0000, recBytes+(8<<20)),
				keys, bdbRecordSize, bdbFanout)
			rkv := &workloads.RemoteKV{Index: idx, QP: qa}
			rng := sim.NewRNG(2)
			t0 := pr.Now()
			rkv.OLTPMix(pr, rng, 200)
			elapsed = pr.Now().Sub(t0)
			rkv.Close(pr)
		})
	}
	return elapsed
}

// fig17CC measures contiguous edge streaming over one channel.
func fig17CC(channel transport.Channel, seed uint64) sim.Dur {
	p := sim.Default()
	rig := newPair(&p, seed)
	defer rig.close()
	g := workloads.GenUniform(sim.NewRNG(3), 30000, 8)
	edgeBytes := uint64(g.Edges()*4) + (4 << 20)
	var elapsed sim.Dur
	// All channels run the same two fixed sweeps so a convergence-
	// dependent pass count cannot confound the channel comparison.
	const passes = 2
	switch channel {
	case transport.ChanCRMA:
		rig.run("cc-crma", func(pr *sim.Proc) {
			win := mountWindow(rig, edgeBytes)
			g.Place(workloads.NewArena(0, 8<<20), workloads.NewArena(win, edgeBytes),
				workloads.NewArena(16<<20, 8<<20))
			t0 := pr.Now()
			workloads.CCPasses(pr, rig.Local.Mem, g, passes)
			rig.Local.Mem.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
	case transport.ChanRDMA:
		rig.run("cc-rdma", func(pr *sim.Proc) {
			base := rig.Local.NextHotplugWindow(edgeBytes)
			mountSwap(rig, base, edgeBytes, int(edgeBytes/4)/p.PageBytes+4)
			g.Place(workloads.NewArena(0, 8<<20), workloads.NewArena(base, edgeBytes),
				workloads.NewArena(16<<20, 8<<20))
			t0 := pr.Now()
			workloads.CCPasses(pr, rig.Local.Mem, g, passes)
			rig.Local.Mem.Flush(pr)
			elapsed = pr.Now().Sub(t0)
		})
	case transport.ChanQPair:
		g.Place(workloads.NewArena(0, 8<<20), workloads.NewArena(0x1000_0000, edgeBytes),
			workloads.NewArena(16<<20, 8<<20))
		qa, qb := transport.ConnectQPair(rig.Local.EP, rig.Donor.EP, transport.QPairConfig{})
		workloads.ServeKV(rig.Eng, "srv",
			&workloads.DataServer{H: rig.Donor.Mem, QP: qb, Think: 500 * sim.Nanosecond})
		rig.run("cc-qpair", func(pr *sim.Proc) {
			t0 := pr.Now()
			// Label-propagation-shaped passes fetching each adjacency
			// list as an explicit message per vertex.
			workloads.PageRankQPair(pr, rig.Local.Mem, g, qa, passes, 1)
			elapsed = pr.Now().Sub(t0)
			workloads.CloseServer(pr, qa)
		})
	}
	return elapsed
}

// fig17Iperf measures message passing over one channel.
func fig17Iperf(channel transport.Channel, seed uint64) sim.Dur {
	p := sim.Default()
	rig := newPair(&p, seed)
	defer rig.close()
	const msgSize, count = 256, 2000
	var elapsed sim.Dur
	switch channel {
	case transport.ChanQPair:
		qa, qb := transport.ConnectQPair(rig.Local.EP, rig.Donor.EP, transport.QPairConfig{})
		workloads.IperfQPairSink(rig.Eng, qb)
		rig.run("iperf-qp", func(pr *sim.Proc) {
			rep := workloads.IperfQPair(pr, qa, msgSize, count)
			elapsed = rep.Elapsed
		})
	case transport.ChanCRMA:
		rig.run("iperf-crma", func(pr *sim.Proc) {
			win := rig.Local.NextHotplugWindow(1 << 20)
			mapWindow(rig, win, 1<<20, 0x2000_0000)
			rep := workloads.IperfCRMA(pr, rig.Local.EP.CRMA, win, p.CacheLine, msgSize, count)
			elapsed = rep.Elapsed
		})
	case transport.ChanRDMA:
		rig.run("iperf-rdma", func(pr *sim.Proc) {
			rep := workloads.IperfRDMA(pr, rig.Local.EP.RDMA, 1, 0x2000_0000, msgSize, count)
			elapsed = rep.Elapsed
		})
	}
	return elapsed
}

// fig17Patterns names the three access patterns, their runners, their
// rig seeds (unchanged from the sequential code), and the paper's
// reported values per channel.
var fig17Patterns = []struct {
	key   string
	name  string
	seed  uint64
	run   func(transport.Channel, uint64) sim.Dur
	paper [3]string
}{
	{"db", "in-mem DB random", 71, fig17DB, [3]string{"100", "14.5", "12.2"}},
	{"cc", "CC contiguous", 72, fig17CC, [3]string{"23.7", "100", "4.2"}},
	{"iperf", "iperf messaging", 73, fig17Iperf, [3]string{"57.7", "12.0", "100"}},
}

// fig17Channels orders the three channels as the table's columns do.
var fig17Channels = []struct {
	key string
	ch  transport.Channel
}{
	{"crma", transport.ChanCRMA},
	{"rdma", transport.ChanRDMA},
	{"qpair", transport.ChanQPair},
}

// fig17Spec decomposes the study into one trial per pattern × channel.
func fig17Spec() harness.Spec {
	var trials []harness.Trial
	for _, pat := range fig17Patterns {
		for _, ch := range fig17Channels {
			trials = append(trials, harness.Trial{
				ID: pat.key + "/" + ch.key, Seed: pat.seed,
				Run: durTrial(func(seed uint64) sim.Dur { return pat.run(ch.ch, seed) }),
			})
		}
	}
	return harness.Spec{
		Title:    "Fig. 17 — channel multi-modality study",
		Trials:   trials,
		Assemble: assembleFig17,
	}
}

// assembleFig17 normalizes each pattern to its best channel (=100).
func assembleFig17(r *harness.Result) (harness.Artifact, error) {
	res := &Fig17Result{
		Table: Table{
			Title:   "Fig. 17 — channel comparison, normalized to best per pattern (=100)",
			Columns: []string{"pattern", "CRMA", "paper", "RDMA", "paper", "QPair", "paper"},
		},
	}
	for _, pat := range fig17Patterns {
		res.Patterns = append(res.Patterns, pat.name)
		var times [3]sim.Dur
		best := sim.Dur(1<<62 - 1)
		for j, ch := range fig17Channels {
			times[j] = trialDur(r, pat.key+"/"+ch.key)
			if times[j] < best {
				best = times[j]
			}
		}
		norm := func(d sim.Dur) float64 { return 100 * float64(best) / float64(d) }
		res.CRMA = append(res.CRMA, norm(times[0]))
		res.RDMA = append(res.RDMA, norm(times[1]))
		res.QPair = append(res.QPair, norm(times[2]))
		res.Table.AddRow(pat.name,
			f1(norm(times[0])), pat.paper[0],
			f1(norm(times[1])), pat.paper[1],
			f1(norm(times[2])), pat.paper[2])
	}
	return res, nil
}

// String renders the figure's table.
func (r *Fig17Result) String() string { return r.Table.String() }
