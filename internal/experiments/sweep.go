package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/serving"
	"repro/internal/sim"
)

// The open-loop scenario families (serving, serving-scale,
// serving-churn, serving-inference, serving-tenancy, and the
// migrate-smoke pairing) share one pipeline, which this file owns: a
// cell list decomposes into shard trials, each trial runs its cell's
// serving.Config through serving.Run and exports its scalars plus its
// latency histogram in exact-merge form, and a per-family fold turns
// one cell's shard values into a typed result and its table row(s).
// Shards differ only in their seed, and the histogram merge is
// integral, so any harness worker count renders byte-identical tables.

// cell is one configuration of a sweep, run as Shards independent
// trials.
type cell struct {
	ID     string
	Cfg    serving.Config
	Shards int
}

// sweep is one scenario family: what a shard's result exports, and a
// fold per cell into the family's result type R and the table.
type sweep[R any] struct {
	title   string
	columns []string
	// seed is the base shard seed: shard k of every cell runs with
	// seed+k. Shard seeds are the one stochastic input that differs
	// between a cell's trials; everything else in a scenario is
	// internally seeded.
	seed uint64
	// values exports one shard's result; cfg is the shard's config.
	values func(cfg serving.Config, r *serving.Result) harness.Values
	// fold gets one cell's shard values in shard order, returns the
	// cell's result, and adds the cell's row(s) to the table.
	fold func(c cell, shards []harness.Values, t *Table) (R, error)
}

// shardID names shard k of a cell's trials.
func shardID(cellID string, k int) string { return fmt.Sprintf("%s/s%d", cellID, k) }

// trials decomposes a cell list into shard trials, in cell then shard
// order. A trial runs its cell's config under the shard's seed.
func (s sweep[R]) trials(cells []cell) []harness.Trial {
	var trials []harness.Trial
	for _, c := range cells {
		for k := 0; k < c.Shards; k++ {
			trials = append(trials, harness.Trial{
				ID:   shardID(c.ID, k),
				Seed: s.seed + uint64(k),
				Run: func(seed uint64) (harness.Values, error) {
					cfg := c.Cfg
					cfg.Seed = seed
					r, err := serving.Run(cfg)
					if err != nil {
						return nil, err
					}
					return s.values(cfg, r), nil
				},
			})
		}
	}
	return trials
}

// assemble folds every cell's shards into the sweep's result.
func (s sweep[R]) assemble(r *harness.Result, cells []cell) (*SweepResult[R], error) {
	res := &SweepResult[R]{Table: Table{Title: s.title, Columns: s.columns}}
	for _, c := range cells {
		shards := make([]harness.Values, c.Shards)
		for k := range shards {
			v, ok := r.Values(shardID(c.ID, k))
			if !ok {
				return nil, fmt.Errorf("experiments: trial %q missing from results", shardID(c.ID, k))
			}
			shards[k] = v
		}
		cr, err := s.fold(c, shards, &res.Table)
		if err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, cr)
		res.ids = append(res.ids, c.ID)
	}
	return res, nil
}

// spec builds a registrable spec over a cell list.
func (s sweep[R]) spec(title string, cells []cell) harness.Spec {
	return harness.Spec{
		Title:  title,
		Trials: s.trials(cells),
		Assemble: func(r *harness.Result) (harness.Artifact, error) {
			res, err := s.assemble(r, cells)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	}
}

// SweepResult is an assembled sweep: one result per cell, in cell
// order, and the rendered table.
type SweepResult[R any] struct {
	Cells []R
	Table Table

	ids []string // cell ids, parallel to Cells
}

// Cell returns a cell by id, or nil.
func (r *SweepResult[R]) Cell(id string) *R {
	for i, cid := range r.ids {
		if cid == id {
			return &r.Cells[i]
		}
	}
	return nil
}

// String renders the sweep table.
func (r *SweepResult[R]) String() string { return r.Table.String() }

// putHist exports h into v in its exact-merge form: the sum, min and
// max plus one count per occupied bucket, every key prefixed by prefix
// ("lat_sum", "lat_b042", or "standard_lat_b042" with prefix
// "standard_").
func putHist(v harness.Values, prefix string, h *sim.LatencyHist) {
	v[prefix+"lat_sum"] = float64(h.Sum())
	v[prefix+"lat_min"] = float64(h.Min())
	v[prefix+"lat_max"] = float64(h.Max())
	for _, b := range h.Buckets() {
		v[fmt.Sprintf("%slat_b%03d", prefix, b.Index)] = float64(b.Count)
	}
}

// mergeHist rebuilds each shard's histogram under prefix and merges
// them in shard order. The merge is integral, so it is exact.
func mergeHist(shards []harness.Values, prefix string) (*sim.LatencyHist, error) {
	merged := &sim.LatencyHist{}
	bucket := prefix + "lat_b"
	for _, v := range shards {
		var buckets []sim.LatencyBucket
		for k, n := range v {
			if !strings.HasPrefix(k, bucket) {
				continue
			}
			idx, err := strconv.Atoi(k[len(bucket):])
			if err != nil {
				return nil, fmt.Errorf("experiments: bad bucket key %q: %w", k, err)
			}
			buckets = append(buckets, sim.LatencyBucket{Index: idx, Count: int64(n)})
		}
		merged.Merge(sim.RestoreLatencyHist(int64(get(v, prefix+"lat_sum")),
			int64(get(v, prefix+"lat_min")), int64(get(v, prefix+"lat_max")), buckets))
	}
	return merged, nil
}

// get returns one metric of one shard. Like harness.Result.Val it
// panics on a missing key: the values exporter and the fold are written
// together, so a miss is a spec-authoring bug.
func get(v harness.Values, key string) float64 {
	x, ok := v[key]
	if !ok {
		panic(fmt.Sprintf("experiments: shard has no value %q", key))
	}
	return x
}

// sum adds one metric over a cell's shards, in shard order, so float
// means stay bit-identical to a hand-written loop.
func sum(shards []harness.Values, key string) float64 {
	var s float64
	for _, v := range shards {
		s += get(v, key)
	}
	return s
}

// maxOf is the fullest shard view of a count. Shards share the cell's
// installed fault schedule, but each engine stops at its own completion
// instant, so a faster shard can apply fewer trailing crashes.
func maxOf(shards []harness.Values, key string) int64 {
	var m int64
	for _, v := range shards {
		m = max(m, int64(get(v, key)))
	}
	return m
}
