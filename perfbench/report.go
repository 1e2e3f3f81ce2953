package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/sim"
)

// metric is one printed number.
type metric struct {
	name  string
	unit  string
	value float64
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted durations, in µs
// (0 for none).
func quantile(sorted []sim.Dur, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)].Micros()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sums totals a pass's per-trial numbers. Host times are in seconds at
// the reference speed (see trial.speed).
type sums struct {
	offered, completed, refused, good int
	serve, setup                      float64
	phases                            [numPhases]float64
	wall                              float64 // serve-phase seconds on the wall clock
	mallocs, allocBytes               uint64
	window                            sim.Dur
	// failed counts requests lost, or offered in a trial whose checks
	// failed. Admission refusals are the plane's designed answer, not
	// failures: they are counted in refused and miss the goodput deadline.
	failed int
}

func total(ts []*trial) sums {
	var s sums
	for _, t := range ts {
		s.offered += t.offered
		s.completed += t.completed
		s.refused += t.refused
		s.good += t.good
		s.serve += t.hostSeconds(t.serve)
		s.wall += t.serve.Seconds()
		for ph, d := range t.setup {
			s.setup += t.hostSeconds(d)
			s.phases[ph] += t.hostSeconds(d)
		}
		s.mallocs += t.mallocs
		s.allocBytes += t.allocBytes
		s.window += t.window()
		if len(t.failures) > 0 {
			s.failed += t.offered
		} else {
			s.failed += t.offered - t.completed - t.refused
		}
	}
	return s
}

// hostUSPerReq is a pass's serve-phase host time per offered request,
// at the reference speed.
func (s sums) hostUSPerReq() float64 { return ratio(s.serve*1e6, float64(s.offered)) }

// meanQuantile is the mean over trials of each trial's q-quantile
// latency, in µs. Across ten seeds of lease-crowd, whose flash crowd
// makes the tail vary most, the mean of the trials' p99 spread 0.07–0.08
// of its median between quartiles, their median 0.11 and the pooled p99
// 0.08.
func meanQuantile(ts []*trial, q float64) float64 {
	var sum float64
	for _, t := range ts {
		lat := append([]sim.Dur(nil), t.lat...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		sum += quantile(lat, q)
	}
	return ratio(sum, float64(len(ts)))
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(ts []*trial) []metric {
	s := total(ts)
	n := float64(s.offered)
	rss := make([]float64, len(ts))
	for i, t := range ts {
		rss[i] = t.maxRSS
	}
	return []metric{
		{"host_us_per_req", "us", s.hostUSPerReq()},
		{"allocs_per_req", "count", ratio(float64(s.mallocs), n)},
		{"alloc_bytes_per_req", "B", ratio(float64(s.allocBytes), n)},
		// The peak of one trial, median over trials: teardown leaves a
		// closed engine's parked procs holding stacks, and how large they
		// are when a trial ends varies; one trial's spike must not set it.
		{"max_rss_mb", "MiB", median(rss)},
		{"setup_s", "s", s.setup},
		{"sim_p50_us", "us", meanQuantile(ts, 0.50)},
		{"sim_p99_us", "us", meanQuantile(ts, 0.99)},
		{"sim_goodput_rps", "req/s", ratio(float64(s.good), s.window.Seconds())},
	}
}

// layerPasses is what the per-layer metrics are computed from: the
// untraced reference pass, the CPU-profiled and traced pass, and the
// allocation pass with its per-layer allocation counts.
type layerPasses struct {
	untraced, traced, allocs []*trial
	allocLayers              map[string]int64
}

// perLayer computes every per-layer metric.
func perLayer(lp layerPasses) ([]metric, error) {
	host, err := layerHost(lp)
	if err != nil {
		return nil, err
	}
	out := append(host, layerCounts(lp.traced)...)
	un := total(lp.untraced)
	for ph, s := range un.phases {
		out = append(out, metric{"setup." + phaseNames[ph] + "_ms", "ms", s * 1e3})
	}
	return out, nil
}

// layerHost computes each layer's host self time and allocations, and
// the traced pass's totals and overhead.
func layerHost(lp layerPasses) ([]metric, error) {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }

	// Host self time: each layer's share of the CPU profile, scaled to
	// the traced pass's host time, so the layers add up to it.
	cpu := make(map[string]int64)
	var cpuTotal int64
	for _, t := range lp.traced {
		p, err := parseProfile(t.cpu)
		if err != nil {
			return nil, err
		}
		byLayer, err := attribute(p, "cpu")
		if err != nil {
			return nil, err
		}
		for l, v := range byLayer {
			cpu[l] += v
			cpuTotal += v
		}
	}
	tracedUS := total(lp.traced).hostUSPerReq()
	for _, l := range layerNames {
		add(l+".us_per_req", "us", tracedUS*ratio(float64(cpu[l]), float64(cpuTotal)))
	}

	// Allocations of the allocation pass's serve phases, by layer. The
	// profile misses some (the tiny allocator folds small objects into
	// one record); the remainder is reported.
	al := total(lp.allocs)
	n := float64(al.offered)
	var attributed int64
	for _, l := range layerNames {
		attributed += lp.allocLayers[l]
		add(l+".allocs_per_req", "count", ratio(float64(lp.allocLayers[l]), n))
	}
	add("unattributed.allocs_per_req", "count", ratio(float64(al.mallocs)-float64(attributed), n))

	add("trace.host_us_per_req", "us", tracedUS)
	add("trace.allocs_per_req", "count", ratio(float64(al.mallocs), n))
	add("trace.overhead_pct", "%", 100*(ratio(tracedUS, total(lp.untraced).hostUSPerReq())-1))
	return out, nil
}

// layerCounts computes the per-layer metrics that repeat exactly for a
// seed: work, waiting and retries read from the simulator's counters,
// and the virtual-time spans the benchmark recorded around its calls into
// each layer. _per_req counts cover the serve phases; bare counts cover
// whole trials, set-up and teardown included, summed over the pass.
func layerCounts(ts []*trial) []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }

	var serve, end counters
	var book leaseBook
	var crashes, offered int
	heartbeats := int64(0)
	mn := make(map[string]int64)
	for _, t := range ts {
		a, b := t.atServe, t.afterServe
		offered += t.offered
		serve.events += b.events - a.events
		serve.link.Packets += b.link.Packets - a.link.Packets
		serve.link.Bytes += b.link.Bytes - a.link.Bytes
		serve.link.CreditStall += b.link.CreditStall - a.link.CreditStall
		serve.crmaFills += b.crmaFills - a.crmaFills
		serve.rdmaOps += b.rdmaOps - a.rdmaOps
		serve.memReads += b.memReads - a.memReads
		serve.cacheHits += b.cacheHits - a.cacheHits
		serve.cacheMisses += b.cacheMisses - a.cacheMisses
		heartbeats += b.mn["heartbeats"] - a.mn["heartbeats"]
		end.link.Replays += t.atEnd.link.Replays
		end.crmaReplayed += t.atEnd.crmaReplayed
		for k, v := range t.atEnd.mn {
			mn[k] += v
		}
		crashes += t.crashes
		book.granted += t.leases.granted
		book.released += t.leases.released
		book.failedOver += t.leases.failedOver
		book.acquireFailed += t.leases.acquireFailed
	}
	n := float64(offered)
	f := func(v int64) float64 { return float64(v) }
	add("sim.events_per_req", "count", ratio(float64(serve.events), n))
	add("fabric.link_pkts_per_req", "count", ratio(f(serve.link.Packets), n))
	add("fabric.link_bytes_per_req", "B", ratio(f(serve.link.Bytes), n))
	add("fabric.credit_stalls_per_req", "count", ratio(f(serve.link.CreditStall), n))
	add("fabric.replays", "count", f(end.link.Replays))
	add("transport.crma_fills_per_req", "count", ratio(f(serve.crmaFills), n))
	add("transport.crma_replayed", "count", f(end.crmaReplayed))
	add("transport.rdma_ops_per_req", "count", ratio(f(serve.rdmaOps), n))
	add("memsys.reads_per_req", "count", ratio(f(serve.memReads), n))
	add("memsys.miss_ratio", "ratio", ratio(f(serve.cacheMisses), f(serve.cacheHits+serve.cacheMisses)))
	add("monitor.grants", "count", f(mn["alloc.memory"]+mn["alloc.accelerator"]+mn["alloc.nic"]+mn["alloc.delegated"]))
	add("monitor.grant_retries", "count", f(mn["alloc.retries"]+mn["alloc.dead_skips"]+mn["alloc.grant_timeouts"]))
	add("monitor.admit_queued", "count", f(mn["admit.queued"]))
	add("monitor.admit_rejected", "count", f(mn["admit.rejected"]))
	add("monitor.admit_degraded", "count", f(mn["admit.degraded"]))
	add("monitor.preemptions", "count", f(mn["preempt.memory"]+mn["preempt.device"]))
	add("monitor.recoveries", "count", f(mn["recover.replaced"]+mn["recover.devices_replaced"]))
	add("monitor.heartbeats_per_req", "count", ratio(f(heartbeats), n))
	add("monitor.delegations", "count", f(mn["root.delegated"]))
	add("core.granted", "count", float64(book.granted))
	add("core.released", "count", float64(book.released))
	add("core.failed_over", "count", float64(book.failedOver))
	add("core.acquire_failed", "count", float64(book.acquireFailed))
	add("chaos.crashes", "count", float64(crashes))

	byName := spanDurations(ts)
	for _, name := range []string{"memsys.read", "core.acquire", "core.release", "transport.fill", "accel.run", "vnic.send", "bench.queue"} {
		ds := byName[name]
		add(name+"_virt_us.p50", "us", quantile(ds, 0.50))
		add(name+"_virt_us.p99", "us", quantile(ds, 0.99))
	}
	return out
}

// spanDurations groups span durations by name, sorted, and derives
// bench.queue: each request's span minus its child spans, the time it
// waited for a worker.
func spanDurations(ts []*trial) map[string][]sim.Dur {
	out := make(map[string][]sim.Dur)
	for _, t := range ts {
		root := make(map[int32]sim.Dur)
		child := make(map[int32]sim.Dur)
		for _, s := range t.spans {
			d := s.end.Sub(s.start)
			if s.name == spanRequest {
				root[s.req] = d
				continue
			}
			child[s.req] += d
			out[spanNames[s.name]] = append(out[spanNames[s.name]], d)
		}
		for req, d := range root {
			out["bench.queue"] = append(out["bench.queue"], d-child[req])
		}
	}
	for _, ds := range out {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	}
	return out
}

// writeTrace writes the traced pass's spans (one JSON object a line) and
// the per-layer table into dir.
func writeTrace(dir, workload string, seed uint64, ts []*trial, layers []metric) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	f, err := os.Create(base + "-spans.jsonl")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	for k, t := range ts {
		for _, s := range t.spans {
			fmt.Fprintf(w, `{"trial":%d,"req":%d,"span":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				k, s.req, spanNames[s.name], int64(s.start), int64(s.end))
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(metricsJSON(layers), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+"-layers.json", append(data, '\n'), 0o644)
}

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricsJSON(ms []metric) map[string]metricJSON {
	out := make(map[string]metricJSON, len(ms))
	for _, m := range ms {
		out[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	return out
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// printResult writes the metrics as a readable table, then the result
// object as the last line.
func printResult(w io.Writer, correct bool, attempted, failed int, ms []metric) error {
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	data, err := json.Marshal(result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metricsJSON(ms)})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
