package monitor

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
)

// Policy orders donor candidates for an allocation request. The paper's
// prototype considers only distance (§5.3) but names distance, topology,
// and traffic as the factors an intelligent runtime must weigh (§8);
// the additional policies explore that design space. Choose receives
// the telemetry View (donor load, windowed per-path utilization) so
// policies can weigh live traffic, not just static shape.
type Policy interface {
	Name() string
	// Choose sorts candidates in place, best donor first, using the
	// telemetry snapshot v.
	Choose(v *View, requester fabric.NodeID, cands []*Registration)
}

// policyRegistry is the single source of truth for selectable policies:
// each policy self-registers in an init func, and PolicyByName /
// PolicyNames / venice-bench -list all read from it.
var policyRegistry = struct {
	names []string
	mk    map[string]func() Policy
}{mk: make(map[string]func() Policy)}

// RegisterPolicy adds a named policy constructor to the registry.
// Registration order defines sweep order; duplicate names panic.
func RegisterPolicy(name string, mk func() Policy) {
	if name == "" {
		panic("monitor: RegisterPolicy with empty name")
	}
	if _, dup := policyRegistry.mk[name]; dup {
		panic(fmt.Sprintf("monitor: policy %q registered twice", name))
	}
	policyRegistry.names = append(policyRegistry.names, name)
	policyRegistry.mk[name] = mk
}

// PolicyByName resolves a policy by its registered name — the form the
// serving scenario sweeps and command-line surfaces set Monitor.Policy
// by. The empty string selects the prototype default (distance-first).
func PolicyByName(name string) (Policy, bool) {
	if name == "" {
		name = "distance"
	}
	mk, ok := policyRegistry.mk[name]
	if !ok {
		return nil, false
	}
	return mk(), true
}

// PolicyNames lists the selectable policy names in registration (sweep)
// order.
func PolicyNames() []string {
	out := make([]string, len(policyRegistry.names))
	copy(out, policyRegistry.names)
	return out
}

func init() {
	// Registration order is sweep order; the original three keep their
	// historical positions so existing sweeps are unchanged.
	RegisterPolicy("distance", func() Policy { return DistanceFirst{} })
	RegisterPolicy("most-idle", func() Policy { return MostIdle{} })
	RegisterPolicy("traffic-aware", func() Policy { return TrafficAware{} })
	RegisterPolicy("spread", func() Policy { return Spread{} })
	RegisterPolicy("coolest-path", func() Policy { return CoolestPath{} })
}

// tieBreak is the shared final ordering every policy falls back to:
// more idle memory first, then node id for determinism.
func tieBreak(a, b *Registration) bool {
	if a.IdleBytes != b.IdleBytes {
		return a.IdleBytes > b.IdleBytes
	}
	return a.Node < b.Node
}

// DistanceFirst is the prototype's policy: nearest donor wins, idle
// memory breaks ties, node id keeps it deterministic.
type DistanceFirst struct{}

// Name identifies the policy.
func (DistanceFirst) Name() string { return "distance" }

// Choose implements Policy.
func (DistanceFirst) Choose(v *View, requester fabric.NodeID, cands []*Registration) {
	sort.Slice(cands, func(i, j int) bool {
		di := v.HopCount(requester, cands[i].Node)
		dj := v.HopCount(requester, cands[j].Node)
		if di != dj {
			return di < dj
		}
		return tieBreak(cands[i], cands[j])
	})
}

// MostIdle ignores distance and picks the donor with the most spare
// memory — a capacity-balancing policy.
type MostIdle struct{}

// Name identifies the policy.
func (MostIdle) Name() string { return "most-idle" }

// Choose implements Policy.
func (MostIdle) Choose(_ *View, _ fabric.NodeID, cands []*Registration) {
	sort.Slice(cands, func(i, j int) bool {
		return tieBreak(cands[i], cands[j])
	})
}

// TrafficAware prefers near donors but skips past donors whose paths
// already carry traffic. With telemetry it scores the measured windowed
// utilization of the requester→donor path (trafficUtilHops extra hops
// for a fully busy path) plus the path's lease commitments — grants
// whose traffic is not yet visible in the sampling window
// (trafficCommitHops each). Without telemetry it falls back to the
// pre-telemetry proxy, the donor's live-allocation count
// (trafficLoadHops per allocation). The donor-count proxy and
// the measured term are exclusive: the count exists only to guess at
// traffic when the runtime is blind, so once paths report real
// utilization it would just double-count (and, worse, push placements
// onto far donors whose leases are idle) — the commitment term carries
// the only signal it held, now per-path instead of per-donor.
type TrafficAware struct{}

// TrafficAware's weights, in extra hops: one live allocation on the
// donor when the MN is blind; a 100%-utilized path, and each lease
// already committed to the path's busiest link, when telemetry is
// available.
const (
	trafficLoadHops   = 2
	trafficUtilHops   = 8.0
	trafficCommitHops = 1.0
)

// Name identifies the policy.
func (TrafficAware) Name() string { return "traffic-aware" }

// Choose implements Policy.
func (TrafficAware) Choose(v *View, requester fabric.NodeID, cands []*Registration) {
	score := func(r *Registration) float64 {
		s := float64(v.HopCount(requester, r.Node))
		if v.HasTelemetry {
			u, _ := v.PathUtil(requester, r.Node) // unknown reads as idle
			s += trafficUtilHops*u + trafficCommitHops*float64(v.PathCommits(requester, r.Node))
		} else {
			s += float64(trafficLoadHops * v.Load[r.Node])
		}
		return s
	}
	sort.Slice(cands, func(i, j int) bool {
		si, sj := score(cands[i]), score(cands[j])
		if si != sj {
			return si < sj
		}
		return tieBreak(cands[i], cands[j])
	})
}

// Spread ignores distance and balances the number of live leases per
// donor — the blast-radius-minimizing policy: a donor crash takes out
// as few leases as possible.
type Spread struct{}

// Name identifies the policy.
func (Spread) Name() string { return "spread" }

// Choose implements Policy.
func (Spread) Choose(v *View, _ fabric.NodeID, cands []*Registration) {
	sort.Slice(cands, func(i, j int) bool {
		li, lj := v.Load[cands[i].Node], v.Load[cands[j].Node]
		if li != lj {
			return li < lj
		}
		return tieBreak(cands[i], cands[j])
	})
}

// CoolestPath places purely by windowed path utilization: the donor
// whose requester→donor path has the coolest bottleneck link wins,
// distance breaking ties. Without telemetry every path scores unknown
// and the ordering degrades to distance-first.
type CoolestPath struct{}

// Name identifies the policy.
func (CoolestPath) Name() string { return "coolest-path" }

// Choose implements Policy.
func (CoolestPath) Choose(v *View, requester fabric.NodeID, cands []*Registration) {
	util := func(r *Registration) float64 {
		u, _ := v.PathUtil(requester, r.Node) // unknown reads as idle
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
		return tieBreak(cands[i], cands[j])
	})
}
