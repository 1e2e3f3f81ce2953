package monitor

import (
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// synthView builds a View over the 2x2x2 mesh with the given sampled
// link utilizations (unordered pairs) — the pure-function half of the
// telemetry plane, testable without a cluster.
func synthView(util map[[2]fabric.NodeID]float64) *View {
	v := &View{Topo: fabric.Mesh3D(2, 2, 2), Load: map[fabric.NodeID]int{}}
	for k, u := range util {
		if v.linkUtil == nil {
			v.linkUtil = make(map[[2]fabric.NodeID]float64)
			v.HasTelemetry = true
		}
		v.linkUtil[linkKey(k[0], k[1])] = u
	}
	return v
}

// pathLinks collects the links of the View's a→b route, in hop order.
func pathLinks(v *View, a, b fabric.NodeID) [][2]fabric.NodeID {
	return slices.Collect(v.path(a, b))
}

func TestViewPathLinksWalksDeterministicRoute(t *testing.T) {
	v := synthView(nil)
	links := pathLinks(v, 0, 7)
	if len(links) != 3 {
		t.Fatalf("0->7 path has %d links, want 3 (opposite mesh corners)", len(links))
	}
	// The links chain: consecutive pairs share a node, the first touches
	// the source, the last the destination.
	touches := func(l [2]fabric.NodeID, n fabric.NodeID) bool { return l[0] == n || l[1] == n }
	if !touches(links[0], 0) || !touches(links[2], 7) {
		t.Fatalf("path endpoints wrong: %v", links)
	}
	for i := 1; i < len(links); i++ {
		prev, cur := links[i-1], links[i]
		if !touches(cur, prev[0]) && !touches(cur, prev[1]) {
			t.Fatalf("links %v and %v do not chain", prev, cur)
		}
	}
	if self := pathLinks(v, 3, 3); len(self) != 0 {
		t.Fatalf("self path has links %v", self)
	}
	// Two walks return the same route — the determinism policies rely on.
	if again := pathLinks(v, 0, 7); !slices.Equal(links, again) {
		t.Fatalf("route changed between walks: %v vs %v", links, again)
	}
}

// TestViewLinkUtilNormalizesDirection: a link's sample is keyed by the
// unordered pair, so a one-hop path reads it from either end.
func TestViewLinkUtilNormalizesDirection(t *testing.T) {
	v := synthView(map[[2]fabric.NodeID]float64{{1, 0}: 0.4})
	for _, q := range [][2]fabric.NodeID{{0, 1}, {1, 0}} {
		if u, ok := v.PathUtil(q[0], q[1]); !ok || u != 0.4 {
			t.Fatalf("PathUtil(%v,%v) = %v,%v; want 0.4,true", q[0], q[1], u, ok)
		}
		if got := pathLinks(v, q[0], q[1]); len(got) != 1 || got[0] != linkKey(1, 0) {
			t.Fatalf("path %v->%v = %v, want the one link %v", q[0], q[1], got, linkKey(1, 0))
		}
	}
	if _, ok := v.PathUtil(6, 7); ok {
		t.Fatal("unsampled link reported a utilization")
	}
}

func TestViewPathUtilReportsBottleneck(t *testing.T) {
	blind := synthView(nil)
	if _, ok := blind.PathUtil(0, 7); ok {
		t.Fatal("PathUtil known without telemetry")
	}
	links := pathLinks(blind, 0, 7)
	v := synthView(map[[2]fabric.NodeID]float64{
		links[0]: 0.2,
		links[1]: 0.6,
	})
	if u, ok := v.PathUtil(0, 7); !ok || u != 0.6 {
		t.Fatalf("PathUtil(0,7) = %v,%v; want bottleneck 0.6,true", u, ok)
	}
	// A path none of whose links were sampled reads unknown even with
	// telemetry on elsewhere.
	if _, ok := v.PathUtil(6, 7); ok {
		t.Fatal("unsampled path reported a known utilization")
	}
	if _, ok := v.PathUtil(5, 5); ok {
		t.Fatal("self path reported a known utilization")
	}
}

func TestViewPathBottleneckAndCrosses(t *testing.T) {
	blind := synthView(nil)
	if _, _, ok := blind.PathBottleneck(0, 7); ok {
		t.Fatal("bottleneck known without telemetry")
	}
	links := pathLinks(blind, 0, 7)
	v := synthView(map[[2]fabric.NodeID]float64{
		links[0]: 0.3,
		links[2]: 0.9,
	})
	link, u, ok := v.PathBottleneck(0, 7)
	if !ok || u != 0.9 || link != links[2] {
		t.Fatalf("PathBottleneck(0,7) = %v,%v,%v; want %v,0.9,true", link, u, ok, links[2])
	}
	for _, l := range links {
		if !v.PathCrosses(0, 7, l) {
			t.Fatalf("path 0->7 does not cross its own link %v", l)
		}
	}
	// Adjacent nodes cross exactly their own link and nothing else.
	if !v.PathCrosses(0, 1, linkKey(0, 1)) || v.PathCrosses(0, 1, linkKey(6, 7)) {
		t.Fatal("PathCrosses wrong for a 1-hop path")
	}
}

func TestViewPathCommitsTracksBusiestLink(t *testing.T) {
	v := synthView(nil)
	links := pathLinks(v, 0, 7)
	v.commits = map[[2]fabric.NodeID]int{links[0]: 2, links[1]: 1}
	if got := v.PathCommits(0, 7); got != 2 {
		t.Fatalf("PathCommits(0,7) = %d, want 2", got)
	}
	if got := v.PathCommits(6, 7); got != 0 {
		t.Fatalf("uncommitted path shows %d commits", got)
	}
}

// TestTelemetryHeartbeatsReachView is the end-to-end pipeline check:
// agents with Telemetry on sample their adjacent links each beat, the
// probes ride the existing heartbeats into the TST, and the MN's View
// reports both the windowed utilizations and the lease commitments.
func TestTelemetryHeartbeatsReachView(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.eng.RunFor(1 * sim.Second)
	if c.mn.View().HasTelemetry {
		t.Fatal("telemetry reported without any telemetry-enabled agent")
	}
	for _, a := range c.agents {
		a.Telemetry = true
	}
	c.eng.RunFor(1 * sim.Second)
	v := c.mn.View()
	if !v.HasTelemetry {
		t.Fatal("telemetry-enabled heartbeats never reached the View")
	}
	if _, ok := v.PathUtil(0, 1); !ok {
		t.Fatal("adjacent link 0-1 never sampled despite telemetry beats")
	}
	resp := allocFrom(t, c, 7, 64<<20)
	v = c.mn.View()
	if got := v.PathCommits(7, resp.Donor); got < 1 {
		t.Fatalf("live lease invisible to commitments: PathCommits(7,%v) = %d", resp.Donor, got)
	}
}
