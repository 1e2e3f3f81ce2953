package experiments

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/vnic"
	"repro/internal/workloads"
)

// Fig16aResult reproduces Fig. 16a: FFT performance with a local
// accelerator plus 1-3 remote accelerators, normalized to the local
// accelerator alone. Higher is better; near-linear is the paper's
// finding.
type Fig16aResult struct {
	Remotes []int
	Small   []float64 // 8 MB-class dataset speedup
	Large   []float64 // 512 MB-class dataset speedup
	Table   Table
}

// fig16aRun measures the farm with k remote accelerators on a dataset.
func fig16aRun(k, dataset int, seed uint64) sim.Dur {
	p := sim.Default()
	eng := sim.New()
	defer eng.Close()
	net := fabric.NewNetwork(eng, &p, fabric.Star(5), sim.NewRNG(seed))
	host := node.New(eng, &p, net, 0, 4<<30)
	xfft := accel.FFT{MBps: 180, Setup: 20 * sim.Microsecond}
	local := accel.New(eng, &p, xfft)
	client := accel.NewClient(host)
	var handles []*accel.RemoteHandle
	for i := 0; i < k; i++ {
		donor := node.New(eng, &p, net, fabric.NodeID(i+1), 4<<30)
		dev := accel.New(eng, &p, xfft)
		svc := accel.Serve(donor, dev)
		svc.SetExclusive(0)
		defer svc.Shutdown()
		handles = append(handles, client.Attach(donor.ID, 0))
	}
	var elapsed sim.Dur
	host.Run("fft-farm", func(pr *sim.Proc) {
		t0 := pr.Now()
		workloads.FFTFarm(pr, eng, local, handles, dataset)
		elapsed = pr.Now().Sub(t0)
	})
	eng.Run()
	return elapsed
}

// Seeds for the two farm studies' network streams, unchanged from the
// sequential code.
const (
	fig16aSeed = 16
	fig16bSeed = 17
)

// fig16aSpec decomposes the accelerator farm into one trial per
// accelerator-count × dataset cell (k=0 is the local-only baseline).
func fig16aSpec() harness.Spec {
	var trials []harness.Trial
	for k := 0; k <= 3; k++ {
		for _, class := range []struct {
			name  string
			bytes int
		}{{"small", fftSmallBytes}, {"large", fftLargeBytes}} {
			trials = append(trials, harness.Trial{
				ID: fmt.Sprintf("%dra/%s", k, class.name), Seed: fig16aSeed,
				Run: durTrial(func(seed uint64) sim.Dur { return fig16aRun(k, class.bytes, seed) }),
			})
		}
	}
	return harness.Spec{
		Title:    "Fig. 16a — FFT farm with remote accelerators",
		Trials:   trials,
		Assemble: assembleFig16a,
	}
}

// assembleFig16a normalizes each farm size to the local accelerator.
func assembleFig16a(r *harness.Result) (harness.Artifact, error) {
	res := &Fig16aResult{
		Remotes: []int{1, 2, 3},
		Table: Table{
			Title:   "Fig. 16a — FFT speedup vs one local accelerator (paper: near-linear)",
			Columns: []string{"config", "8MB-class", "512MB-class", "ideal"},
		},
	}
	baseSmall := trialDur(r, "0ra/small")
	baseLarge := trialDur(r, "0ra/large")
	for _, k := range res.Remotes {
		s := float64(baseSmall) / float64(trialDur(r, fmt.Sprintf("%dra/small", k)))
		l := float64(baseLarge) / float64(trialDur(r, fmt.Sprintf("%dra/large", k)))
		res.Small = append(res.Small, s)
		res.Large = append(res.Large, l)
		res.Table.AddRow(fmt.Sprintf("LA+%dRA", k), f2(s), f2(l), fmt.Sprintf("%d", k+1))
	}
	return res, nil
}

// String renders the figure's table.
func (r *Fig16aResult) String() string { return r.Table.String() }

// Fig16bResult reproduces Fig. 16b: iperf throughput with a local NIC
// plus 1-3 remote NICs, normalized to the local NIC alone, for tiny
// (4 B) and normal (256 B) packets.
type Fig16bResult struct {
	Remotes []int
	Tiny    []float64
	Normal  []float64
	Table   Table
}

// fig16bRun measures bonded throughput with k remote NICs.
func fig16bRun(k, pktSize int, seed uint64) float64 {
	p := sim.Default()
	eng := sim.New()
	defer eng.Close()
	net := fabric.NewNetwork(eng, &p, fabric.Star(5), sim.NewRNG(seed))
	host := node.New(eng, &p, net, 0, 1<<30)
	local := vnic.NewNIC(eng, &p, "eth0")
	slaves := []vnic.Slave{&vnic.LocalSlave{NIC: local}}
	for i := 0; i < k; i++ {
		donor := node.New(eng, &p, net, fabric.NodeID(i+1), 1<<30)
		dn := vnic.NewNIC(eng, &p, fmt.Sprintf("eth0@%v", donor.ID))
		slaves = append(slaves, vnic.AttachRemote(host, donor, dn))
	}
	bond := vnic.NewBond(&p, slaves...)
	var rep workloads.IperfReport
	host.Run("iperf", func(pr *sim.Proc) {
		rep = workloads.IperfBond(pr, bond, pktSize, iperfPackets)
	})
	eng.RunFor(120 * sim.Second)
	return rep.MBps()
}

// fig16bSpec decomposes the NIC bond into one trial per NIC-count ×
// packet-size cell (k=0 is the local-only baseline).
func fig16bSpec() harness.Spec {
	var trials []harness.Trial
	for k := 0; k <= 3; k++ {
		for _, pkt := range []struct {
			name string
			size int
		}{{"4B", iperfSmall}, {"256B", iperfBig}} {
			trials = append(trials, harness.Trial{
				ID: fmt.Sprintf("%drn/%s", k, pkt.name), Seed: fig16bSeed,
				Run: func(seed uint64) (harness.Values, error) {
					return harness.Values{"mbps": fig16bRun(k, pkt.size, seed)}, nil
				},
			})
		}
	}
	return harness.Spec{
		Title:    "Fig. 16b — iperf over bonded remote NICs",
		Trials:   trials,
		Assemble: assembleFig16b,
	}
}

// assembleFig16b normalizes each bond size to the local NIC.
func assembleFig16b(r *harness.Result) (harness.Artifact, error) {
	res := &Fig16bResult{
		Remotes: []int{1, 2, 3},
		Table: Table{
			Title:   "Fig. 16b — iperf throughput vs one local NIC (paper: ~40% util @4B, ~85% @256B with 3RN)",
			Columns: []string{"config", "4B pkts", "util", "256B pkts", "util"},
		},
	}
	baseTiny := r.Val("0rn/4B", "mbps")
	baseNormal := r.Val("0rn/256B", "mbps")
	for _, k := range res.Remotes {
		ty := r.Val(fmt.Sprintf("%drn/4B", k), "mbps") / baseTiny
		no := r.Val(fmt.Sprintf("%drn/256B", k), "mbps") / baseNormal
		res.Tiny = append(res.Tiny, ty)
		res.Normal = append(res.Normal, no)
		ideal := float64(k + 1)
		res.Table.AddRow(fmt.Sprintf("LN+%dRN", k), f2(ty), pct(100*ty/ideal),
			f2(no), pct(100*no/ideal))
	}
	return res, nil
}

// String renders the figure's table.
func (r *Fig16bResult) String() string { return r.Table.String() }
