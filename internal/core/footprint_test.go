package core

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// spineReadRig is the shape of perfbench's spine-read rig: four racks of
// 4×2×2 nodes behind two spine switches, two uplinks per rack, and
// 30-second beats, so the monitor plane is idle once it has registered
// every node.
func spineReadRig() *HierCluster {
	return NewHierCluster(HierConfig{
		Racks: 4, RackX: 4, RackY: 2, RackZ: 2,
		Spines: 2, Uplinks: 2, SpineGbps: 2.5,
		HeartbeatInterval: 30 * sim.Second,
		RackBeatInterval:  30 * sim.Second,
	})
}

// TestIdleNodeFootprint bounds the live heap an idle rack-scale rig
// holds per node, spine switches included, after a second of virtual
// time. No node reads through its cache, so none holds cache lines: a
// cache builds them on its first access.
func TestIdleNodeFootprint(t *testing.T) {
	const maxPerNode = 16 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cl := spineReadRig()
	defer cl.Close()
	cl.RunFor(sim.Second)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cl)
	perNode := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(len(cl.Nodes))
	if perNode > maxPerNode {
		t.Fatalf("an idle %d-node rig holds %.1f KiB per node, want at most %d KiB", len(cl.Nodes), float64(perNode)/1024, maxPerNode>>10)
	}
}

// BenchmarkHierClusterBuild measures building the spine-read-shaped rig
// and closing it: every node, switch, link, routing table, agent and
// MN, with nothing run.
func BenchmarkHierClusterBuild(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		spineReadRig().Close()
	}
}
