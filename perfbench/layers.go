package main

import (
	"path"
	"strings"
)

// The layers host time and allocations are charged to, in report order.
// A sample belongs to the layer of its innermost frame inside the repro
// module; runtime helpers (mallocgc, selectgo, map operations) therefore
// count toward the simulator code that called them.
var layerNames = []string{
	"sim.engine", "sim.proc",
	"fabric.hop", "fabric.topo",
	"transport.crma", "transport.rdma", "transport.rpc",
	"memsys", "monitor", "core", "accel", "vnic",
	"bench", "other", "runtime.gc",
}

// packageLayers maps whole packages onto layers. Packages missing here
// but inside the repro module (chaos, tenancy, obs, ...) are "other".
var packageLayers = map[string]string{
	"repro/internal/memsys":  "memsys",
	"repro/internal/monitor": "monitor",
	"repro/internal/core":    "core",
	"repro/internal/node":    "core",
	"repro/internal/accel":   "accel",
	"repro/internal/vnic":    "vnic",
	"main":                   "bench",
	"repro/perfbench":        "bench",
}

// fileLayers splits the packages that hold a hot spot by source file.
// Files of these packages not listed fall to the package's default in
// splitDefaults.
var fileLayers = map[string]map[string]string{
	"repro/internal/sim": {
		"proc.go": "sim.proc",
		"sync.go": "sim.proc",
	},
	"repro/internal/fabric": {
		"topology.go": "fabric.topo",
		"hier.go":     "fabric.topo",
	},
	"repro/internal/transport": {
		"crma.go":     "transport.crma",
		"rdma.go":     "transport.rdma",
		"endpoint.go": "transport.rpc",
	},
}

var splitDefaults = map[string]string{
	"repro/internal/sim":       "sim.engine",
	"repro/internal/fabric":    "fabric.hop",
	"repro/internal/transport": "transport.rpc",
}

// procSwitch is the engine half of the baton hand-off between procs. It
// lives in engine.go but is the same cost as park in proc.go.
const procSwitch = "repro/internal/sim.(*Engine).resume"

// frame is one (possibly inlined) function of a sample's stack.
type frame struct {
	fn   string // fully qualified function name
	file string // source file path
}

// funcPackage extracts the import path from a qualified function name
// such as "repro/internal/sim.(*Queue[...]).Pop".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// frameLayer maps one frame onto its layer; ok is false for frames
// outside the repro module (the runtime and the standard library).
func frameLayer(f frame) (layer string, ok bool) {
	pkg := funcPackage(f.fn)
	if l, found := packageLayers[pkg]; found {
		return l, true
	}
	if byFile, found := fileLayers[pkg]; found {
		if f.fn == procSwitch {
			return "sim.proc", true
		}
		if l, found := byFile[path.Base(f.file)]; found {
			return l, true
		}
		return splitDefaults[pkg], true
	}
	if strings.HasPrefix(pkg, "repro/") {
		return "other", true
	}
	return "", false
}

// stackLayer charges a stack, innermost frame first, to one layer.
// Stacks with no repro frame are runtime work nobody in the module
// called: the garbage collector's workers go to runtime.gc, as does any
// other runtime housekeeping; the profiler's own writer goes to bench;
// and goroutine scheduling goes to sim.proc, because with one P the
// scheduler only runs to hand the baton between simulated procs.
func stackLayer(stack []frame) string {
	for _, f := range stack {
		if l, ok := frameLayer(f); ok {
			return l
		}
	}
	for _, f := range stack {
		if isGCFrame(f.fn) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "runtime/pprof.") {
			return "bench"
		}
		if schedFrames[f.fn] {
			return "sim.proc"
		}
	}
	return "runtime.gc"
}

// isGCFrame reports whether fn belongs to the collector: mark workers,
// assists, sweeping and scavenging.
func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// schedFrames are the runtime entry points of goroutine creation,
// parking and exit.
var schedFrames = map[string]bool{
	"runtime.mcall":    true,
	"runtime.park_m":   true,
	"runtime.schedule": true,
	"runtime.goexit0":  true,
	"runtime.gopark":   true,
	"runtime.goready":  true,
	"runtime.newproc":  true,
	"runtime.newproc1": true,
	"runtime.malg":     true,
}

// attribute sums the named sample value of p per layer.
func attribute(p *profile, valueType string) (map[string]int64, error) {
	idx, err := p.valueIndex(valueType)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(layerNames))
	for _, s := range p.samples {
		out[stackLayer(s.stack)] += s.values[idx]
	}
	return out, nil
}
