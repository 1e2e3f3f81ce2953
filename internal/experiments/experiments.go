// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is decomposed into independent trials —
// one per configuration × workload cell, each building its own
// simulator from an explicit seed — registered with internal/harness
// and executed on its worker pool; the assembly functions fold the
// per-trial measurements back into the same rows/series the paper
// reports, formatted for terminal output. Absolute values come from our
// calibrated simulator rather than the authors' FPGA testbed;
// EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/node"
	"repro/internal/sim"
)

// Table is a printable result grid.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", width[i], c)
	}
	b.WriteString("\n")
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", width[i]) + "  ")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) {
				fmt.Fprintf(&b, "%-*s  ", width[i], c)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// f2 formats a float at 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f1 formats a float at 1 decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// pct formats a percentage at 1 decimal.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// pair builds a two-node rig (requester node 0, donor node 1) with the
// given parameters and a deterministic seed.
type pairRig struct {
	Eng   *sim.Engine
	P     *sim.Params
	Net   *fabric.Network
	Local *node.Node
	Donor *node.Node
}

func newPair(p *sim.Params, seed uint64) *pairRig {
	eng := sim.New()
	net := fabric.NewNetwork(eng, p, fabric.Pair(), sim.NewRNG(seed))
	return &pairRig{
		Eng:   eng,
		P:     p,
		Net:   net,
		Local: node.New(eng, p, net, 0, 4<<30),
		Donor: node.New(eng, p, net, 1, 4<<30),
	}
}

// run executes fn as the requester's workload and drains the engine.
func (r *pairRig) run(name string, fn func(p *sim.Proc)) {
	r.Local.Run(name, fn)
	r.Eng.Run()
}

// close releases the rig.
func (r *pairRig) close() { r.Eng.Close() }

// durTrial adapts a virtual-duration measurement into a harness trial
// body: the duration is carried as exact nanoseconds.
func durTrial(f func(seed uint64) sim.Dur) func(uint64) (harness.Values, error) {
	return func(seed uint64) (harness.Values, error) {
		return harness.Values{"ns": float64(f(seed))}, nil
	}
}

// trialDur reads a duration metric back out of an executed trial.
func trialDur(r *harness.Result, trial string) sim.Dur {
	return sim.Dur(int64(r.Val(trial, "ns")))
}

// runSpec executes a spec on the default worker pool and returns its
// assembled artifact; experiment entry points wrap it with a type
// assertion. Trial failures are programming errors here (the specs ship
// with the package), so they panic rather than burden every caller.
func runSpec(id string, spec harness.Spec) harness.Artifact {
	art, _, err := harness.Run(id, spec, harness.Options{})
	if err != nil {
		panic(err)
	}
	return art
}

// runRegistered is runSpec on the spec registered under id.
func runRegistered(id string) harness.Artifact {
	art, _, err := harness.RunID(id, harness.Options{})
	if err != nil {
		panic(err)
	}
	return art
}
