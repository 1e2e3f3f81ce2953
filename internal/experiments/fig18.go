package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Fig18Result reproduces Fig. 18: the bandwidth improvement from
// carrying QPair flow-control credits over the CRMA channel instead of
// as QPair control messages, by payload size. The paper reports 28-51%,
// larger for small packets.
type Fig18Result struct {
	Sizes       []int
	Improvement []float64 // percent
	Table       Table
}

// qpairStream measures a flow-controlled QPair stream's effective
// throughput in MB/s: count payloads of size bytes under cfg's credit
// window and credit-return path. Sender and receiver run at driver
// speed (the stream is hardware-paced, as in the SDP scenario the paper
// describes), so only the credit mechanism differs between runs.
func qpairStream(cfg transport.QPairConfig, size, count int, seed uint64) float64 {
	p := sim.Default()
	rig := newPair(&p, seed)
	defer rig.close()
	qa, qb := transport.ConnectQPair(rig.Local.EP, rig.Donor.EP, cfg)
	var done sim.Time
	rig.Eng.Go("sink", func(pr *sim.Proc) {
		for i := 0; i < count; i++ {
			qb.RecvHW(pr)
		}
		done = pr.Now()
	})
	rig.run("stream", func(pr *sim.Proc) {
		for i := 0; i < count; i++ {
			qa.SendHW(pr, size, nil)
		}
	})
	if done == 0 {
		panic("experiments: QPair stream never drained")
	}
	return float64(count) * float64(size) / 1e6 / sim.Dur(done).Seconds()
}

// fig18Sizes is the payload sweep; fig18Seed the rig stream.
var fig18Sizes = []int{4, 8, 16, 32, 64, 128}

const fig18Seed = 81

// fig18Spec decomposes the sweep into one trial per payload size ×
// credit path.
func fig18Spec() harness.Spec {
	var trials []harness.Trial
	for _, s := range fig18Sizes {
		for _, path := range []struct {
			name    string
			viaCRMA bool
		}{{"qpair-credits", false}, {"crma-credits", true}} {
			trials = append(trials, harness.Trial{
				ID: fmt.Sprintf("%dB/%s", s, path.name), Seed: fig18Seed,
				Run: func(seed uint64) (harness.Values, error) {
					cfg := transport.QPairConfig{Window: 16, CreditViaCRMA: path.viaCRMA}
					return harness.Values{"mbps": qpairStream(cfg, s, 3000, seed)}, nil
				},
			})
		}
	}
	return harness.Spec{
		Title:    "Fig. 18 — QPair flow-control credits over CRMA",
		Trials:   trials,
		Assemble: assembleFig18,
	}
}

// assembleFig18 computes the collaborative path's improvement per size.
func assembleFig18(r *harness.Result) (harness.Artifact, error) {
	paper := []string{"~51%", "~48%", "~42%", "~38%", "~33%", "~28%"}
	res := &Fig18Result{
		Sizes: fig18Sizes,
		Table: Table{
			Title:   "Fig. 18 — QPair bandwidth improvement with credits over CRMA",
			Columns: []string{"payload", "qpair-credits MB/s", "crma-credits MB/s", "improvement", "paper"},
		},
	}
	for i, s := range fig18Sizes {
		base := r.Val(fmt.Sprintf("%dB/qpair-credits", s), "mbps")
		collab := r.Val(fmt.Sprintf("%dB/crma-credits", s), "mbps")
		imp := 100 * (collab - base) / base
		res.Improvement = append(res.Improvement, imp)
		res.Table.AddRow(fmt.Sprintf("%dB", s), f2(base), f2(collab), pct(imp), paper[i])
	}
	return res, nil
}

// String renders the figure's table.
func (r *Fig18Result) String() string { return r.Table.String() }
