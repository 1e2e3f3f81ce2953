package fabric

import "fmt"

// Topology describes which node pairs have direct links. Links are
// created in both directions for every adjacency.
//
// The constructors compute the topology's routing tables once, and
// every copy of the value shares them read-only, so HopCount, NextHop
// and NeighborsOf are O(1) lookups that allocate nothing. A Topology
// assembled field by field works too: it computes its tables on each
// query until NewNetwork builds a network over it, whose copy keeps
// them. Changing N or appending edges after construction likewise
// falls back to recomputation rather than serving stale routes.
type Topology struct {
	Name  string
	N     int
	Edges [][2]NodeID

	rt *routes
}

// Pair returns two directly connected nodes — the configuration of the
// §4.2 latency experiments ("directly connected, without an intermediate
// router node").
func Pair() Topology {
	return Topology{Name: "pair", N: 2, Edges: [][2]NodeID{{0, 1}}}.routed()
}

// Line returns n nodes in a chain.
func Line(n int) Topology {
	t := Topology{Name: fmt.Sprintf("line%d", n), N: n}
	for i := 0; i < n-1; i++ {
		t.Edges = append(t.Edges, [2]NodeID{NodeID(i), NodeID(i + 1)})
	}
	return t.routed()
}

// Star returns n nodes all connected to node 0.
func Star(n int) Topology {
	t := Topology{Name: fmt.Sprintf("star%d", n), N: n}
	for i := 1; i < n; i++ {
		t.Edges = append(t.Edges, [2]NodeID{0, NodeID(i)})
	}
	return t.routed()
}

// FullMesh returns n fully interconnected nodes.
func FullMesh(n int) Topology {
	t := Topology{Name: fmt.Sprintf("full%d", n), N: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.Edges = append(t.Edges, [2]NodeID{NodeID(i), NodeID(j)})
		}
	}
	return t.routed()
}

// Mesh3D returns an x×y×z mesh. Mesh3D(2,2,2) is the prototype's
// eight-node 3D mesh (Fig. 4 / Table 1). Node (i,j,k) has id
// i + j*x + k*x*y.
func Mesh3D(x, y, z int) Topology {
	if x < 1 || y < 1 || z < 1 {
		panic("fabric: mesh dimensions must be positive")
	}
	t := Topology{Name: fmt.Sprintf("mesh%dx%dx%d", x, y, z), N: x * y * z}
	id := func(i, j, k int) NodeID { return NodeID(i + j*x + k*x*y) }
	for k := 0; k < z; k++ {
		for j := 0; j < y; j++ {
			for i := 0; i < x; i++ {
				if i+1 < x {
					t.Edges = append(t.Edges, [2]NodeID{id(i, j, k), id(i+1, j, k)})
				}
				if j+1 < y {
					t.Edges = append(t.Edges, [2]NodeID{id(i, j, k), id(i, j+1, k)})
				}
				if k+1 < z {
					t.Edges = append(t.Edges, [2]NodeID{id(i, j, k), id(i, j, k+1)})
				}
			}
		}
	}
	return t.routed()
}

// routes holds a topology's routing tables, computed once from its
// edge list: neighbor lists in edge-construction order, plus hop counts
// and next hops for every ordered node pair in dense N×N matrices
// indexed a*N+b.
type routes struct {
	n, edges int // the N and len(Edges) the tables were built from

	nbrs [][]NodeID // rows share one backing array, capacity-limited
	hops []int32    // -1: unreachable
	next []int32    // first hop from a toward b; a itself when a == b, -1 when unreachable
}

// routed returns t with its routing tables computed.
func (t Topology) routed() Topology {
	t.rt = newRoutes(t)
	return t
}

// tables returns t's routing tables: the ones computed at construction,
// or a fresh computation when t was assembled field by field or its
// shape changed since.
func (t *Topology) tables() *routes {
	if r := t.rt; r != nil && r.n == t.N && r.edges == len(t.Edges) {
		return r
	}
	return newRoutes(*t)
}

// newRoutes validates t's edges and runs one BFS per source. Ties
// between equal-length paths go to the neighbor inserted first, which
// makes routes deterministic.
func newRoutes(t Topology) *routes {
	n := t.N
	deg := make([]int, n)
	for _, e := range t.Edges {
		a, b := e[0], e[1]
		if a < 0 || int(a) >= n || b < 0 || int(b) >= n || a == b {
			panic(fmt.Sprintf("fabric: bad edge %v in topology %s", e, t.Name))
		}
		deg[a]++
		deg[b]++
	}
	r := &routes{
		n:     n,
		edges: len(t.Edges),
		nbrs:  make([][]NodeID, n),
		hops:  make([]int32, n*n),
		next:  make([]int32, n*n),
	}
	backing := make([]NodeID, 2*len(t.Edges))
	off := 0
	for a := range r.nbrs {
		r.nbrs[a] = backing[off : off : off+deg[a]]
		off += deg[a]
	}
	for _, e := range t.Edges {
		r.nbrs[e[0]] = append(r.nbrs[e[0]], e[1])
		r.nbrs[e[1]] = append(r.nbrs[e[1]], e[0])
	}
	queue := make([]NodeID, 0, n)
	for src := 0; src < n; src++ {
		hops, next := r.hops[src*n:(src+1)*n], r.next[src*n:(src+1)*n]
		for i := range hops {
			hops[i], next[i] = -1, -1
		}
		hops[src], next[src] = 0, int32(src)
		queue = append(queue[:0], NodeID(src))
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for _, v := range r.nbrs[u] {
				if hops[v] != -1 {
					continue
				}
				hops[v] = hops[u] + 1
				if int(u) == src {
					next[v] = int32(v)
				} else {
					next[v] = next[u]
				}
				queue = append(queue, v)
			}
		}
	}
	return r
}

// pair returns the matrix index of the ordered pair (a, b). Ids outside
// [0, N) panic: a flat a*N+b index would otherwise alias silently into
// the next row.
func (r *routes) pair(a, b NodeID) int {
	if uint(a) >= uint(r.n) || uint(b) >= uint(r.n) {
		panic(fmt.Sprintf("fabric: node pair (%v, %v) out of range [0, %d)", a, b, r.n))
	}
	return int(a)*r.n + int(b)
}

// NeighborsOf reports the nodes directly connected to id, in
// deterministic (edge-construction) order. The slice is shared by every
// copy of the topology; callers must not modify it.
func (t Topology) NeighborsOf(id NodeID) []NodeID {
	return t.tables().nbrs[id]
}

// HopCount reports the shortest-path hop count between a and b, or -1
// when b is unreachable from a.
func (t Topology) HopCount(a, b NodeID) int {
	r := t.tables()
	return int(r.hops[r.pair(a, b)])
}

// NextHop reports the neighbor a forwards to on the deterministic
// shortest path toward b — the route every switch takes — so
// control-plane consumers (the telemetry view's path walks) can follow
// the links a node pair's traffic actually crosses. It reports a itself
// when a == b, and -1 when b is unreachable.
func (t Topology) NextHop(a, b NodeID) NodeID {
	r := t.tables()
	return NodeID(r.next[r.pair(a, b)])
}
