package monitor

import (
	"cmp"
	"slices"

	"repro/internal/fabric"
)

// Policy orders donor candidates for an allocation request: a row of
// the policies table, obtained from PolicyByName. The paper's prototype
// considers only distance (§5.3) but names distance, topology, and
// traffic as the factors an intelligent runtime must weigh (§8); the
// other rows explore that design space, comparing candidates under the
// telemetry View (donor load, windowed per-path utilization).
type Policy struct {
	name string
	// cmp orders a before b (negative) or after it (positive) for a
	// request from requester; 0 leaves the pair to tieBreak.
	cmp func(v *View, requester fabric.NodeID, a, b *Registration) int
}

// policies lists the selectable policies in sweep order, the order
// PolicyNames, the serving sweeps and venice-bench -list read. The
// first row is the prototype's and the default. Adding a policy is one
// row.
var policies = [...]Policy{
	// The prototype's policy: the nearest donor wins.
	{"distance", byDistance},
	// Ignores distance: the donor with the most spare memory wins, a
	// capacity-balancing policy that tieBreak alone orders.
	{"most-idle", func(*View, fabric.NodeID, *Registration, *Registration) int { return 0 }},
	// Prefers near donors but skips past those whose paths already
	// carry traffic (see trafficScore).
	{"traffic-aware", func(v *View, req fabric.NodeID, a, b *Registration) int {
		return cmp.Compare(trafficScore(v, req, a), trafficScore(v, req, b))
	}},
	// Ignores distance and balances live leases per donor, the
	// blast-radius-minimizing policy: a donor crash takes out as few
	// leases as possible.
	{"spread", func(v *View, _ fabric.NodeID, a, b *Registration) int {
		return cmp.Compare(v.Load[a.Node], v.Load[b.Node])
	}},
	// Places purely by windowed path utilization: the donor whose path
	// has the coolest bottleneck link wins, distance breaking ties.
	// Without telemetry every path reads idle and the order degrades to
	// distance-first.
	{"coolest-path", func(v *View, req fabric.NodeID, a, b *Registration) int {
		return cmp.Or(cmp.Compare(pathUtil(v, req, a), pathUtil(v, req, b)), byDistance(v, req, a, b))
	}},
}

// PolicyByName resolves a policy by its name — the form the serving
// scenario sweeps and command-line surfaces set Monitor.Policy by. The
// empty string selects the first row, the prototype default.
func PolicyByName(name string) (*Policy, bool) {
	i := slices.IndexFunc(policies[:], func(p Policy) bool { return p.name == name || name == "" })
	if i < 0 {
		return nil, false
	}
	return &policies[i], true
}

// PolicyNames lists the selectable policy names in sweep order.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.name
	}
	return names
}

// order sorts cands in place, best donor first: p's comparison, then
// tieBreak; a nil p is distance-first. Each row with tieBreak is a
// strict total order (node ids are unique), so the result depends
// neither on the sort algorithm nor on the order cands arrive in.
func (p *Policy) order(v *View, requester fabric.NodeID, cands []*Registration) {
	if p == nil {
		p = &policies[0]
	}
	slices.SortFunc(cands, func(a, b *Registration) int {
		return cmp.Or(p.cmp(v, requester, a, b), tieBreak(a, b))
	})
}

// tieBreak is the final ordering every policy falls back to: more idle
// memory first, then node id for determinism.
func tieBreak(a, b *Registration) int {
	return cmp.Or(cmp.Compare(b.IdleBytes, a.IdleBytes), cmp.Compare(a.Node, b.Node))
}

// byDistance orders the nearer donor first.
func byDistance(v *View, requester fabric.NodeID, a, b *Registration) int {
	return cmp.Compare(v.HopCount(requester, a.Node), v.HopCount(requester, b.Node))
}

// pathUtil is the windowed bottleneck utilization of requester's path
// to r; an unknown path reads as idle.
func pathUtil(v *View, requester fabric.NodeID, r *Registration) float64 {
	u, _ := v.PathUtil(requester, r.Node)
	return u
}

// trafficScore is traffic-aware's cost, in hops, of placing requester's
// lease on r: the path length plus a traffic term in extra hops. With
// telemetry the term is the path's measured windowed utilization
// (trafficUtilHops for a fully busy path) plus the leases committed to
// its most committed link, grants whose traffic is not yet visible in
// the sampling window (trafficCommitHops each). Blind, it is the
// pre-telemetry proxy, the donor's live allocations (trafficLoadHops
// each). The two are exclusive: the count exists only to guess at
// traffic when the runtime is blind, so once paths report real
// utilization it would just double-count (and, worse, push placements
// onto far donors whose leases are idle); the commitment term carries
// the only signal it held, per path instead of per donor.
func trafficScore(v *View, requester fabric.NodeID, r *Registration) float64 {
	s := float64(v.HopCount(requester, r.Node))
	if v.HasTelemetry {
		s += trafficUtilHops*pathUtil(v, requester, r) + trafficCommitHops*float64(v.PathCommits(requester, r.Node))
	} else {
		s += float64(trafficLoadHops * v.Load[r.Node])
	}
	return s
}

const (
	trafficLoadHops   = 2
	trafficUtilHops   = 8.0
	trafficCommitHops = 1.0
)
