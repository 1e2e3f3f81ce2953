package monitor

import (
	"iter"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// View is the telemetry snapshot a placement decision sees: the
// topology, each donor's live-allocation load, and — when agents are
// heartbeating windowed link samples — the recent utilization of every
// reported link. Policies receive a View instead of reaching into the
// Monitor so the placement inputs are explicit and testable; the MN
// builds one per donor walk, and the migration loop builds one per
// scan.
type View struct {
	Topo fabric.Topology
	Now  sim.Time

	// Load counts live allocations per donor — the congestion proxy the
	// pre-telemetry traffic-aware policy used, still the only signal
	// available when telemetry is off.
	Load map[fabric.NodeID]int

	// HasTelemetry reports whether any windowed link utilization has
	// been heartbeated; when false PathUtil always reports unknown and
	// telemetry-capable policies fall back to their load-only behavior.
	HasTelemetry bool

	linkUtil map[[2]fabric.NodeID]float64
	commits  map[[2]fabric.NodeID]int
}

// view assembles the current telemetry snapshot from the RRT/RAT/TST.
func (m *Monitor) view() *View {
	v := &View{
		Topo: m.Topo,
		Now:  m.EP.Eng.Now(),
		Load: make(map[fabric.NodeID]int, len(m.rrt)),
	}
	for _, a := range m.rat {
		v.Load[a.Donor]++
	}
	for _, a := range m.rat {
		if a.Kind != Memory {
			continue
		}
		for l := range v.path(a.Recipient, a.Donor) {
			if v.commits == nil {
				v.commits = make(map[[2]fabric.NodeID]int)
			}
			v.commits[l]++
		}
	}
	for key, s := range m.tst {
		if !s.HasUtil {
			continue
		}
		if v.linkUtil == nil {
			v.linkUtil = make(map[[2]fabric.NodeID]float64)
		}
		v.HasTelemetry = true
		v.linkUtil[key] = s.Util
	}
	return v
}

// View exposes the MN's current telemetry snapshot (tests and external
// placement tooling).
func (m *Monitor) View() *View { return m.view() }

// HopCount reports the shortest-path hop count between a and b.
func (v *View) HopCount(a, b fabric.NodeID) int { return v.Topo.HopCount(a, b) }

// LinkUtil reports the last windowed utilization heartbeated for the
// link a<->b; ok is false when no agent has sampled it.
func (v *View) LinkUtil(a, b fabric.NodeID) (float64, bool) {
	u, ok := v.linkUtil[linkKey(a, b)]
	return u, ok
}

// path yields the links (as unordered pairs) on the deterministic
// shortest path from a to b, in hop order, walking the topology's
// next-hop table; it yields nothing when a == b or no route exists.
func (v *View) path(a, b fabric.NodeID) iter.Seq[[2]fabric.NodeID] {
	return func(yield func([2]fabric.NodeID) bool) {
		for cur := a; cur != b; {
			nxt := v.Topo.NextHop(cur, b)
			if nxt < 0 || !yield(linkKey(cur, nxt)) {
				return
			}
			cur = nxt
		}
	}
}

// PathUtil reports the hottest link on the deterministic shortest path
// from a to b — the bottleneck a window placed on donor b would share.
// ok is false when telemetry is off or no link on the path has been
// sampled; links without samples are treated as idle otherwise.
func (v *View) PathUtil(a, b fabric.NodeID) (float64, bool) {
	if !v.HasTelemetry {
		return 0, false
	}
	max, known := 0.0, false
	for l := range v.path(a, b) {
		if u, ok := v.linkUtil[l]; ok {
			known = true
			if u > max {
				max = u
			}
		}
	}
	return max, known
}

// PathLinks lists the links (as unordered pairs) on the deterministic
// shortest path from a to b, in hop order; nil when no route exists.
func (v *View) PathLinks(a, b fabric.NodeID) [][2]fabric.NodeID {
	var links [][2]fabric.NodeID
	for l := range v.path(a, b) {
		links = append(links, l)
	}
	return links
}

// PathBottleneck reports the hottest sampled link on the a→b path —
// the link a migration must relieve; ok is false when telemetry is off
// or no link on the path has been sampled.
func (v *View) PathBottleneck(a, b fabric.NodeID) (link [2]fabric.NodeID, util float64, ok bool) {
	if !v.HasTelemetry {
		return link, 0, false
	}
	for l := range v.path(a, b) {
		if u, sampled := v.linkUtil[l]; sampled && (!ok || u > util) {
			link, util, ok = l, u, true
		}
	}
	return link, util, ok
}

// PathCommits reports how many live memory leases share the most
// committed link on the a→b path. Commitments are the placement-time
// complement to the utilization window: a lease granted moments ago is
// invisible to telemetry until its traffic has crossed a beat window,
// but the MN already knows which links its fills will ride.
func (v *View) PathCommits(a, b fabric.NodeID) int {
	max := 0
	for l := range v.path(a, b) {
		if c := v.commits[l]; c > max {
			max = c
		}
	}
	return max
}

// PathCrosses reports whether the a→b path traverses the given link.
func (v *View) PathCrosses(a, b fabric.NodeID, link [2]fabric.NodeID) bool {
	for l := range v.path(a, b) {
		if l == link {
			return true
		}
	}
	return false
}

// FirstHopUtil reports the utilization of node's busiest sampled
// adjacent link — the "recipient's own congested first hop" signal.
func (v *View) FirstHopUtil(node fabric.NodeID) (float64, bool) {
	if !v.HasTelemetry {
		return 0, false
	}
	max, known := 0.0, false
	for _, nb := range v.Topo.NeighborsOf(node) {
		if u, ok := v.linkUtil[linkKey(node, nb)]; ok {
			known = true
			if u > max {
				max = u
			}
		}
	}
	return max, known
}
