package monitor

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// refOrders are the five donor orderings as the MN ran them before the
// policies table: each policy its own sort.Slice over a less function
// ending in the same idle-bytes-then-node-id tie-break. They are kept
// here as the reference the table's comparators must reproduce.
var refOrders = map[string]func(v *View, requester fabric.NodeID, cands []*Registration){
	"distance": func(v *View, requester fabric.NodeID, cands []*Registration) {
		sort.Slice(cands, func(i, j int) bool {
			di := v.HopCount(requester, cands[i].Node)
			dj := v.HopCount(requester, cands[j].Node)
			if di != dj {
				return di < dj
			}
			return refTieBreak(cands[i], cands[j])
		})
	},
	"most-idle": func(_ *View, _ fabric.NodeID, cands []*Registration) {
		sort.Slice(cands, func(i, j int) bool {
			return refTieBreak(cands[i], cands[j])
		})
	},
	"traffic-aware": func(v *View, requester fabric.NodeID, cands []*Registration) {
		score := func(r *Registration) float64 {
			s := float64(v.HopCount(requester, r.Node))
			if v.HasTelemetry {
				u, _ := v.PathUtil(requester, r.Node)
				s += 8.0*u + 1.0*float64(v.PathCommits(requester, r.Node))
			} else {
				s += float64(2 * v.Load[r.Node])
			}
			return s
		}
		sort.Slice(cands, func(i, j int) bool {
			si, sj := score(cands[i]), score(cands[j])
			if si != sj {
				return si < sj
			}
			return refTieBreak(cands[i], cands[j])
		})
	},
	"spread": func(v *View, _ fabric.NodeID, cands []*Registration) {
		sort.Slice(cands, func(i, j int) bool {
			li, lj := v.Load[cands[i].Node], v.Load[cands[j].Node]
			if li != lj {
				return li < lj
			}
			return refTieBreak(cands[i], cands[j])
		})
	},
	"coolest-path": func(v *View, requester fabric.NodeID, cands []*Registration) {
		util := func(r *Registration) float64 {
			u, _ := v.PathUtil(requester, r.Node)
			return u
		}
		sort.Slice(cands, func(i, j int) bool {
			ui, uj := util(cands[i]), util(cands[j])
			if ui != uj {
				return ui < uj
			}
			di := v.HopCount(requester, cands[i].Node)
			dj := v.HopCount(requester, cands[j].Node)
			if di != dj {
				return di < dj
			}
			return refTieBreak(cands[i], cands[j])
		})
	},
}

func refTieBreak(a, b *Registration) bool {
	if a.IdleBytes != b.IdleBytes {
		return a.IdleBytes > b.IdleBytes
	}
	return a.Node < b.Node
}

// randomView draws a View over topo: per-donor loads, per-link lease
// commitments and, unless blind, windowed utilizations on a random
// subset of links. Values come from small sets so that every key ties
// often and the comparisons fall through to the next key.
func randomView(rng *sim.RNG, topo fabric.Topology, blind bool) *View {
	v := &View{Topo: topo, Load: map[fabric.NodeID]int{}}
	for n := 0; n < topo.N; n++ {
		if rng.Bool(0.6) {
			v.Load[fabric.NodeID(n)] = rng.Intn(4)
		}
	}
	for _, e := range topo.Edges {
		l := linkKey(e[0], e[1])
		if rng.Bool(0.3) {
			if v.commits == nil {
				v.commits = map[[2]fabric.NodeID]int{}
			}
			v.commits[l] = 1 + rng.Intn(3)
		}
		if !blind && rng.Bool(0.5) {
			if v.linkUtil == nil {
				v.linkUtil = map[[2]fabric.NodeID]float64{}
				v.HasTelemetry = true
			}
			u := float64(rng.Intn(5)) / 4
			if rng.Bool(0.3) {
				u = rng.Float64()
			}
			v.linkUtil[l] = u
		}
	}
	return v
}

// randomCands draws a shuffled candidate set of distinct donors other
// than requester, with idle bytes from a small set so ties are common.
func randomCands(rng *sim.RNG, n int, requester fabric.NodeID) []*Registration {
	idle := []uint64{0, 1 << 20, 64 << 20, 1 << 30}
	var cands []*Registration
	for _, i := range rng.Perm(n) {
		if id := fabric.NodeID(i); id != requester && rng.Bool(0.7) {
			cands = append(cands, &Registration{Node: id, IdleBytes: idle[rng.Intn(len(idle))]})
		}
	}
	return cands
}

func nodesOf(cands []*Registration) []fabric.NodeID {
	ids := make([]fabric.NodeID, len(cands))
	for i, r := range cands {
		ids[i] = r.Node
	}
	return ids
}

// TestPolicyOrderMatchesReference: for every policy, the table's
// comparator under the shared sort orders seeded random candidate sets
// exactly as the reference sort does, over random Views on a 4x2x2
// mesh, blind and with telemetry. A nil policy orders as distance.
func TestPolicyOrderMatchesReference(t *testing.T) {
	topo := fabric.Mesh3D(4, 2, 2)
	names := PolicyNames()
	if len(names) != len(refOrders) {
		t.Fatalf("table has %d policies, the reference %d", len(names), len(refOrders))
	}
	for seed := uint64(1); seed <= 1000; seed++ {
		rng := sim.NewRNG(seed)
		v := randomView(rng, topo, seed%2 == 0)
		requester := fabric.NodeID(rng.Intn(topo.N))
		cands := randomCands(rng, topo.N, requester)
		for _, name := range append(names, "") {
			ref := slices.Clone(cands)
			var got []*Registration
			if name == "" {
				refOrders["distance"](v, requester, ref)
				got = slices.Clone(cands)
				(*Policy)(nil).order(v, requester, got)
			} else {
				refOrders[name](v, requester, ref)
				got = slices.Clone(cands)
				policyNamed(t, name).order(v, requester, got)
			}
			if !slices.Equal(got, ref) {
				t.Fatalf("seed %d, policy %q, telemetry %v, requester %v: order %v, reference %v",
					seed, name, v.HasTelemetry, requester, nodesOf(got), nodesOf(ref))
			}
		}
	}
}
