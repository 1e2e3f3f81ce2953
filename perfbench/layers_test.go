package main

import "testing"

// TestFrameLayer pins the package and file split of every layer.
func TestFrameLayer(t *testing.T) {
	for _, c := range []struct {
		fn, file string
		want     string
	}{
		{"repro/internal/sim.(*Engine).step", "repro/internal/sim/engine.go", "sim.engine"},
		{"repro/internal/sim.(*wheel).pop", "/src/internal/sim/wheel.go", "sim.engine"},
		{"repro/internal/sim.(*Engine).resume", "repro/internal/sim/engine.go", "sim.proc"},
		{"repro/internal/sim.(*Proc).park", "repro/internal/sim/proc.go", "sim.proc"},
		{"repro/internal/sim.(*Queue[go.shape.struct { repro/internal/x.a int }]).Pop", "repro/internal/sim/sync.go", "sim.proc"},
		{"repro/internal/fabric.(*Link).arrive.func1", "repro/internal/fabric/link.go", "fabric.hop"},
		{"repro/internal/fabric.(*Switch).route", "repro/internal/fabric/switch.go", "fabric.hop"},
		{"repro/internal/fabric.Topology.HopCount", "repro/internal/fabric/topology.go", "fabric.topo"},
		{"repro/internal/fabric.Hier.RackOf", "repro/internal/fabric/hier.go", "fabric.topo"},
		{"repro/internal/transport.(*CRMA).Fill", "repro/internal/transport/crma.go", "transport.crma"},
		{"repro/internal/transport.(*RDMA).Read", "repro/internal/transport/rdma.go", "transport.rdma"},
		{"repro/internal/transport.(*Endpoint).Call", "repro/internal/transport/endpoint.go", "transport.rpc"},
		{"repro/internal/transport.(*QPair).Send", "repro/internal/transport/qpair.go", "transport.rpc"},
		{"repro/internal/memsys.(*Hierarchy).Read", "repro/internal/memsys/hierarchy.go", "memsys"},
		{"repro/internal/monitor.(*Monitor).grantFrom", "repro/internal/monitor/monitor.go", "monitor"},
		{"repro/internal/core.(*Cluster).Acquire", "repro/internal/core/acquire.go", "core"},
		{"repro/internal/node.(*Node).Run", "repro/internal/node/node.go", "core"},
		{"repro/internal/accel.(*RemoteHandle).Run", "repro/internal/accel/client.go", "accel"},
		{"repro/internal/vnic.(*Bond).Send", "repro/internal/vnic/vnic.go", "vnic"},
		{"main.load.start.func2", "repro/perfbench/trial.go", "bench"},
		{"repro/perfbench.spineRead", "/src/perfbench/spineread.go", "bench"},
		{"repro/internal/chaos.(*Injector).Apply", "repro/internal/chaos/chaos.go", "other"},
		{"repro/internal/tenancy.(*Config).Decide", "repro/internal/tenancy/tenancy.go", "other"},
	} {
		got, ok := frameLayer(frame{fn: c.fn, file: c.file})
		if !ok || got != c.want {
			t.Errorf("frameLayer(%s, %s) = %q, %v; want %q", c.fn, c.file, got, ok, c.want)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "runtime.selectgo", "sort.Slice", "container/heap.Push", "runtime/pprof.profileWriter"} {
		if l, ok := frameLayer(frame{fn: fn, file: "x.go"}); ok {
			t.Errorf("frameLayer(%s) = %q, want no layer", fn, l)
		}
	}
}

// TestStackLayer pins how whole stacks, innermost frame first, are
// charged.
func TestStackLayer(t *testing.T) {
	st := func(fns ...string) []frame {
		out := make([]frame, len(fns))
		for i, fn := range fns {
			out[i] = frame{fn: fn, file: "f.go"}
		}
		return out
	}
	linkFile := []frame{{fn: "runtime.mallocgc"}, {fn: "repro/internal/fabric.(*Link).transmit", file: "link.go"}, {fn: "repro/internal/sim.(*Engine).step", file: "engine.go"}}
	for _, c := range []struct {
		name  string
		stack []frame
		want  string
	}{
		{"runtime helper charged to its caller", linkFile, "fabric.hop"},
		{"gc assist inside an allocation", append(st("runtime.gcDrainN", "runtime.gcAssistAlloc"), linkFile...), "fabric.hop"},
		{"innermost repro frame wins", []frame{{fn: "runtime.selectgo"}, {fn: "repro/internal/sim.(*Proc).park", file: "proc.go"}, {fn: "repro/internal/monitor.(*Monitor).onAllocMem", file: "monitor.go"}}, "sim.proc"},
		{"background mark worker", st("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), "runtime.gc"},
		{"sweeper", st("runtime.sweepone", "runtime.bgsweep"), "runtime.gc"},
		{"scheduler between procs", st("runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"), "sim.proc"},
		{"goroutine creation", st("runtime.malg", "runtime.newproc1", "runtime.newproc.func1", "runtime.systemstack"), "sim.proc"},
		{"profile writer", st("runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter"), "bench"},
		{"other runtime work", st("runtime.sysmon", "runtime.mstart1"), "runtime.gc"},
	} {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("%s: stackLayer = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestLayerNamesCoverMapping checks that every layer the mapping can
// produce is reported.
func TestLayerNamesCoverMapping(t *testing.T) {
	known := make(map[string]bool)
	for _, l := range layerNames {
		known[l] = true
	}
	var produced []string
	for _, l := range packageLayers {
		produced = append(produced, l)
	}
	for _, byFile := range fileLayers {
		for _, l := range byFile {
			produced = append(produced, l)
		}
	}
	for _, l := range splitDefaults {
		produced = append(produced, l)
	}
	produced = append(produced, "other", "runtime.gc", "sim.proc", "bench")
	for _, l := range produced {
		if !known[l] {
			t.Errorf("layer %q is produced but not in layerNames", l)
		}
	}
}
