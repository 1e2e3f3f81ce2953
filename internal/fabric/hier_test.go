package fabric

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// refAdjacency lists each node's neighbors in edge-construction order,
// written independently of the topology's own tables.
func refAdjacency(t Topology) [][]int {
	adj := make([][]int, t.N)
	for _, e := range t.Edges {
		a, b := int(e[0]), int(e[1])
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	return adj
}

// refDistances is an independently-written BFS over a topology's edge
// list, used as ground truth for the routing property: it shares no
// code with the topology's routing tables.
func refDistances(t Topology) [][]int {
	adj := refAdjacency(t)
	all := make([][]int, t.N)
	for src := 0; src < t.N; src++ {
		dist := make([]int, t.N)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		frontier := []int{src}
		for len(frontier) > 0 {
			var next []int
			for _, u := range frontier {
				for _, v := range adj[u] {
					if dist[v] == -1 {
						dist[v] = dist[u] + 1
						next = append(next, v)
					}
				}
			}
			frontier = next
		}
		all[src] = dist
	}
	return all
}

// TestRackSpineProperty: any rack/spine configuration yields a
// connected network whose hop counts match an independent BFS, whose
// rack bookkeeping is consistent, and whose cross-rack paths always
// cross the spine tier.
func TestRackSpineProperty(t *testing.T) {
	rng := sim.NewRNG(4401)
	for trial := 0; trial < 60; trial++ {
		racks := 1 + rng.Intn(6)
		x, y, z := 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(2)
		rackSize := x * y * z
		spines := 1 + rng.Intn(3)
		uplinks := 1 + rng.Intn(rackSize)
		h := RackSpine(racks, x, y, z, spines, uplinks)

		if h.N != racks*rackSize+spines {
			t.Fatalf("%s: N=%d, want %d", h.Name, h.N, racks*rackSize+spines)
		}
		wantEdges := racks*len(Mesh3D(x, y, z).Edges) + racks*uplinks + spines*(spines-1)/2
		if len(h.Edges) != wantEdges {
			t.Fatalf("%s: %d edges, want %d", h.Name, len(h.Edges), wantEdges)
		}

		checkRoutes(t, h.Topology)

		// Rack bookkeeping: every node is in exactly one rack or is a
		// spine, and RackNodes inverts RackOf.
		for id := 0; id < h.N; id++ {
			r, inRack := h.RackOf(NodeID(id))
			if inRack == h.IsSpine(NodeID(id)) {
				t.Fatalf("%s: node %d both/neither rack member and spine", h.Name, id)
			}
			if inRack && (r != id/rackSize) {
				t.Fatalf("%s: RackOf(%d)=%d, want %d", h.Name, id, r, id/rackSize)
			}
		}
		for r := 0; r < racks; r++ {
			for i, id := range h.RackNodes(r) {
				if got, ok := h.RackOf(id); !ok || got != r {
					t.Fatalf("%s: RackNodes(%d)[%d]=%v not in rack %d", h.Name, r, i, id, r)
				}
			}
		}

		// Cross-rack traffic must traverse the spine tier: two racks share
		// no direct edge, so any inter-rack pair is >= 2 hops apart, and
		// exactly 2 only uplink-to-uplink through one spine.
		for _, e := range h.Edges {
			ra, aRack := h.RackOf(e[0])
			rb, bRack := h.RackOf(e[1])
			if aRack && bRack && ra != rb {
				t.Fatalf("%s: direct inter-rack edge %v", h.Name, e)
			}
		}
		if racks > 1 {
			a, b := h.RackNodes(0)[rackSize-1], h.RackNodes(1)[rackSize-1]
			if got := h.HopCount(a, b); got < 2 {
				t.Fatalf("%s: cross-rack HopCount(%v,%v)=%d, want >= 2", h.Name, a, b, got)
			}
		}

		// Every spine-tier edge touches a spine switch, and together they
		// account for all rack uplinks.
		spineEdges := h.SpineEdges()
		if len(spineEdges) != racks*uplinks+spines*(spines-1)/2 {
			t.Fatalf("%s: %d spine edges, want %d", h.Name, len(spineEdges),
				racks*uplinks+spines*(spines-1)/2)
		}
		for _, e := range spineEdges {
			if !h.IsSpine(e[0]) && !h.IsSpine(e[1]) {
				t.Fatalf("%s: spine edge %v touches no spine", h.Name, e)
			}
		}

		// MaxDegree against a manual count.
		deg := make(map[NodeID]int)
		for _, e := range h.Edges {
			deg[e[0]]++
			deg[e[1]]++
		}
		want := 0
		for _, d := range deg {
			if d > want {
				want = d
			}
		}
		if got := h.MaxDegree(); got != want {
			t.Fatalf("%s: MaxDegree=%d, manual count says %d", h.Name, got, want)
		}
	}
}

// checkRoutes compares every pair's HopCount and NextHop with the
// reference BFS. The next hop must be a's first neighbor, in
// edge-construction order, that lies on a shortest path to b — the
// deterministic tie-break every switch routes by.
func checkRoutes(t *testing.T, topo Topology) {
	t.Helper()
	adj, dist := refAdjacency(topo), refDistances(topo)
	for a := 0; a < topo.N; a++ {
		for b := 0; b < topo.N; b++ {
			if dist[a][b] < 0 {
				t.Fatalf("%s: disconnected, no path %d->%d", topo.Name, a, b)
			}
			if got := topo.HopCount(NodeID(a), NodeID(b)); got != dist[a][b] {
				t.Fatalf("%s: HopCount(%d,%d)=%d, reference BFS says %d",
					topo.Name, a, b, got, dist[a][b])
			}
			want := a
			for _, nb := range adj[a] {
				if a != b && dist[nb][b] == dist[a][b]-1 {
					want = nb
					break
				}
			}
			if got := topo.NextHop(NodeID(a), NodeID(b)); got != NodeID(want) {
				t.Fatalf("%s: NextHop(%d,%d)=%v, reference BFS says n%d",
					topo.Name, a, b, got, want)
			}
		}
	}
}

// TestRandomTopologyRoutes: on random connected topologies (a random
// spanning tree plus chords, assembled field by field), on the same
// edge lists after the tables are built once, and after one more chord
// is appended to a built topology, hop counts and next hops match the
// reference BFS.
func TestRandomTopologyRoutes(t *testing.T) {
	rng := sim.NewRNG(4402)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(14)
		topo := Topology{Name: "rand", N: n}
		for v := 1; v < n; v++ {
			topo.Edges = append(topo.Edges, [2]NodeID{NodeID(rng.Intn(v)), NodeID(v)})
		}
		for k := 0; k < n; k++ {
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				topo.Edges = append(topo.Edges, [2]NodeID{NodeID(a), NodeID(b)})
			}
		}
		checkRoutes(t, topo)
		routed := topo.routed()
		checkRoutes(t, routed)
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			routed.Edges = append(routed.Edges[:len(routed.Edges):len(routed.Edges)], [2]NodeID{NodeID(a), NodeID(b)})
			checkRoutes(t, routed)
		}
	}
}

// TestRouteQueriesRejectOutOfRangeIDs: a node id outside [0, N) panics
// with a clear message rather than aliasing into a neighboring row of
// the flat a*N+b tables (HopCount(0, N) would read the (1, 0) entry).
func TestRouteQueriesRejectOutOfRangeIDs(t *testing.T) {
	topo := Mesh3D(2, 2, 2)
	bad := map[string]func(){
		"HopCount(0,N)":  func() { topo.HopCount(0, NodeID(topo.N)) },
		"HopCount(-1,0)": func() { topo.HopCount(-1, 0) },
		"HopCount(N,N)":  func() { topo.HopCount(NodeID(topo.N), NodeID(topo.N)) },
		"NextHop(N,0)":   func() { topo.NextHop(NodeID(topo.N), 0) },
		"NextHop(0,-1)":  func() { topo.NextHop(0, -1) },
	}
	for name, fn := range bad {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "out of range") {
					t.Errorf("%s: panic %q, want an out-of-range message", name, msg)
				}
			}()
			fn()
		}()
	}
}

// TestRackSpineDeterminism: identical configurations build identical
// edge lists (the property every seeded experiment rests on).
func TestRackSpineDeterminism(t *testing.T) {
	a := RackSpine(4, 2, 2, 2, 2, 2)
	b := RackSpine(4, 2, 2, 2, 2, 2)
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
}

// TestRackSpineValidation: impossible configurations panic instead of
// building silently-broken fabrics.
func TestRackSpineValidation(t *testing.T) {
	bad := []func(){
		func() { RackSpine(0, 2, 2, 2, 1, 1) },
		func() { RackSpine(2, 0, 2, 2, 1, 1) },
		func() { RackSpine(2, 2, 2, 2, 0, 1) },
		func() { RackSpine(2, 2, 2, 2, 1, 0) },
		func() { RackSpine(2, 2, 2, 2, 1, 9) }, // more uplinks than rack nodes
	}
	for i, fn := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad config %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestLinkGbpsOverride: an uplink bandwidth override changes only that
// link's serialization time, and resetting it restores the global rate.
func TestLinkGbpsOverride(t *testing.T) {
	p := sim.Default()
	eng := sim.New()
	defer eng.Close()
	h := RackSpine(2, 2, 1, 1, 1, 1)
	if h.MaxDegree() > p.LinkPorts {
		p.LinkPorts = h.MaxDegree()
	}
	net := NewNetwork(eng, &p, h.Topology, sim.NewRNG(1))
	up := h.SpineEdges()[0]
	l := net.Link(up[0], up[1])
	if l == nil {
		t.Fatalf("no link for spine edge %v", up)
	}
	base := l.serialize(4096)
	net.SetLinkGbps(up[0], up[1], p.LinkGbps/4)
	if got := l.serialize(4096); got <= base {
		t.Fatalf("quarter-rate serialization %v not above full-rate %v", got, base)
	}
	if got, want := l.Gbps(), p.LinkGbps/4; got != want {
		t.Fatalf("Gbps()=%v, want %v", got, want)
	}
	net.SetLinkGbps(up[0], up[1], 0)
	if got := l.serialize(4096); got != base {
		t.Fatalf("reset serialization %v, want %v", got, base)
	}
	// Intra-rack links are untouched by the spine override.
	if l2 := net.Link(h.RackNodes(0)[0], h.RackNodes(0)[1]); l2.Gbps() != p.LinkGbps {
		t.Fatalf("rack link rate moved to %v", l2.Gbps())
	}
}
