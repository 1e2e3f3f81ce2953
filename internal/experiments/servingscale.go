package experiments

import (
	"fmt"

	"repro/internal/serving"
)

// The serving-scale family sweeps the rack-scale fabric: node count ×
// rack size × cross-rack traffic fraction, under the same open-loop
// load and latency-histogram methodology as the flat serving sweep.
// Every lease is brokered by the sharded monitor plane (sub-MN per
// rack + root MN), so the sweep measures what crossing the
// oversubscribed spine costs at the tail as racks fill up — the
// scaling question the paper's single-rack prototype leaves open.

// Requests per scale shard: the 256-node cells build large engines, so
// the measured window is kept as short as the histograms allow.
const (
	servingScaleRequests = 240
	scaleSmokeRequests   = 160
	servingScaleUtil     = 0.7
)

func scaleCell(racks, rackNodes int, cross float64) cell[serving.Config] {
	return cell[serving.Config]{
		ID: fmt.Sprintf("scale/n%d/r%d/x%.2f", racks*rackNodes, rackNodes, cross),
		Cfg: serving.Config{Workload: serving.Scale, Racks: racks, RackNodes: rackNodes,
			CrossFrac: cross, Util: servingScaleUtil, Requests: servingScaleRequests},
		Shards: 2,
	}
}

// servingScaleCells is the registered sweep. The 64-node row appears
// twice — as 8 racks of 8 and as 4 racks of 16 — so the rack-size axis
// is measured at a fixed node count; the 256-node row is the
// acceptance-scale configuration (8 racks of 32).
func servingScaleCells() []cell[serving.Config] {
	var cells []cell[serving.Config]
	for _, cross := range []float64{0, 0.25, 0.5} {
		cells = append(cells, scaleCell(8, 8, cross))
	}
	cells = append(cells,
		scaleCell(4, 16, 0.25),
		scaleCell(8, 16, 0.25),
	)
	for _, cross := range []float64{0, 0.25, 0.5} {
		cells = append(cells, scaleCell(8, 32, cross))
	}
	return cells
}

// scaleSmokeCells is the cheapest cell — two 8-node racks with half the
// working set cross-rack — pinned in BENCH_BASELINE.json so the CI gate
// regenerates the whole plane (topology, delegation, spine bandwidth
// override, open-loop serving) on every push.
func scaleSmokeCells() []cell[serving.Config] {
	c := scaleCell(2, 8, 0.5)
	c.Cfg.Requests = scaleSmokeRequests
	c.Shards = 1
	return []cell[serving.Config]{c}
}

// ScaleSmoke runs the single-cell CI subset.
func ScaleSmoke() *ServingResult { return runRegistered("scale-smoke").(*ServingResult) }
