package monitor

import (
	"iter"

	"repro/internal/fabric"
)

// View is the telemetry snapshot a placement decision sees: the
// topology, each donor's live-allocation load, and — when agents are
// heartbeating windowed link samples — the recent utilization of every
// reported link. Policies receive a View instead of reaching into the
// Monitor so the placement inputs are explicit and testable. The donor
// walks share one View the MN keeps, which each walk refills when its
// policy reads more than the topology and reads only while it sorts;
// the migration loop builds its own per scan, since it reads its View
// across blocking calls.
type View struct {
	Topo fabric.Topology

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

// view assembles a fresh telemetry snapshot from the RRT/RAT/TST.
func (m *Monitor) view() *View {
	v := &View{}
	m.fill(v)
	return v
}

// fill makes v the current telemetry snapshot, reusing its maps.
func (m *Monitor) fill(v *View) {
	v.Topo, v.HasTelemetry = m.Topo, false
	if v.Load == nil {
		v.Load = make(map[fabric.NodeID]int, len(m.rrt))
	}
	clear(v.Load)
	clear(v.linkUtil)
	clear(v.commits)
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
}

// View exposes the MN's current telemetry snapshot (tests and external
// placement tooling).
func (m *Monitor) View() *View { return m.view() }

// HopCount reports the shortest-path hop count between a and b.
func (v *View) HopCount(a, b fabric.NodeID) int { return v.Topo.HopCount(a, b) }

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
