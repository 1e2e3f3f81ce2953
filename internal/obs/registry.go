// Package obs is the control plane's observability layer: a
// dependency-free metrics registry with Prometheus text exposition, a
// bounded per-lease trace store keyed by the trace ids minted at
// Acquire, and a fan-out broadcaster for live event streams (SSE).
//
// Everything here runs OUTSIDE virtual time. Observers fire
// synchronously on the simulation goroutine but only touch wall-clock
// data structures — no Proc, no Sleep, no engine events — so enabling
// observability cannot perturb a deterministic run. All types are safe
// for concurrent use: the sim goroutine writes while HTTP handler
// goroutines read.
package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// floatBits/bitsFloat convert between float64 values and the raw bits
// a Gauge stores atomically.
func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// Counter is a monotonically increasing metric. The zero value is
// unusable; obtain one from Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored so
// the counter stays monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Obtain one from
// Registry.Gauge.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value reports the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// Histogram is a thread-safe bridge over sim.LatencyHist: the same
// log-linear buckets (16 per octave, exact merge) exposed in
// Prometheus histogram form. Observations are int64 (by convention,
// nanoseconds). Obtain one from Registry.Histogram.
type Histogram struct {
	mu sync.Mutex
	h  sim.LatencyHist
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	h.h.Add(v)
	h.mu.Unlock()
}

// ObserveDur records a duration observation.
func (h *Histogram) ObserveDur(d sim.Dur) { h.Observe(int64(d)) }

// Snapshot copies the underlying histogram (exact: restore-merge
// equivalent per sim.LatencyHist's contract).
func (h *Histogram) Snapshot() *sim.LatencyHist {
	h.mu.Lock()
	defer h.mu.Unlock()
	return sim.RestoreLatencyHist(h.h.Sum(), h.h.Min(), h.h.Max(), h.h.Buckets())
}

// metricKind tags a registered family for the # TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// family is one registered metric family (a name plus help/type); its
// series map holds one sample per label set.
type family struct {
	name string
	help string
	kind metricKind

	counters map[string]*Counter   // by label suffix ("" for unlabeled)
	gauges   map[string]*Gauge     // ditto
	hists    map[string]*Histogram // ditto
}

// Registry is a named collection of metrics with Prometheus text
// exposition. It is dependency-free and safe for concurrent use. The
// zero value is ready; families register lazily on first lookup, and
// repeated lookups with the same name and labels return the same
// metric.
type Registry struct {
	mu  sync.Mutex
	fam map[string]*family
}

// lookup finds or creates the family, enforcing kind consistency.
func (r *Registry) lookup(name, help string, kind metricKind) *family {
	if r.fam == nil {
		r.fam = make(map[string]*family)
	}
	f, ok := r.fam[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind,
			counters: map[string]*Counter{},
			gauges:   map[string]*Gauge{},
			hists:    map[string]*Histogram{}}
		r.fam[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type", name))
	}
	return f
}

// labelSuffix renders a label set into its stable exposition form
// ({k="v",...} with keys sorted), or "" for no labels.
func labelSuffix(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns the counter registered under name (creating it on
// first use). Labels are optional; pass nil for an unlabeled series.
func (r *Registry) Counter(name, help string, labels map[string]string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter)
	key := labelSuffix(labels)
	c, ok := f.counters[key]
	if !ok {
		c = &Counter{}
		f.counters[key] = c
	}
	return c
}

// Gauge returns the gauge registered under name (creating it on first
// use).
func (r *Registry) Gauge(name, help string, labels map[string]string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	key := labelSuffix(labels)
	g, ok := f.gauges[key]
	if !ok {
		g = &Gauge{}
		f.gauges[key] = g
	}
	return g
}

// Histogram returns the histogram registered under name (creating it
// on first use).
func (r *Registry) Histogram(name, help string, labels map[string]string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogram)
	key := labelSuffix(labels)
	h, ok := f.hists[key]
	if !ok {
		h = &Histogram{}
		f.hists[key] = h
	}
	return h
}

// WriteProm writes every registered metric in Prometheus text
// exposition format (version 0.0.4), families sorted by name and
// series sorted by label set, so output is deterministic for a given
// registry state. It copies each family's series under the lock, since
// the simulation goroutine registers new ones while a scrape runs, and
// formats the copies outside it, so a slow scraper never holds the
// lock registration needs.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	fams := make([]family, 0, len(r.fam))
	for _, f := range r.fam {
		c := *f
		c.counters, c.gauges, c.hists = maps.Clone(f.counters), maps.Clone(f.gauges), maps.Clone(f.hists)
		fams = append(fams, c)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		typ := [...]string{"counter", "gauge", "histogram"}[f.kind]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ); err != nil {
			return err
		}
		switch f.kind {
		case kindCounter:
			for _, key := range sortedKeys(f.counters) {
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, key, f.counters[key].Value()); err != nil {
					return err
				}
			}
		case kindGauge:
			for _, key := range sortedKeys(f.gauges) {
				if _, err := fmt.Fprintf(w, "%s%s %g\n", f.name, key, f.gauges[key].Value()); err != nil {
					return err
				}
			}
		case kindHistogram:
			for _, key := range sortedKeys(f.hists) {
				if err := writePromHist(w, f.name, key, f.hists[key].Snapshot()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// writePromHist emits one histogram series: cumulative buckets with
// `le` upper bounds from the underlying log-linear layout (only edges
// that hold observations, plus +Inf), then _sum and _count.
func writePromHist(w io.Writer, name, key string, h *sim.LatencyHist) error {
	cum := int64(0)
	for _, b := range h.Buckets() {
		cum += b.Count
		if err := writeHistLine(w, name, key, fmt.Sprintf("%d", sim.BucketUpper(b.Index)), cum); err != nil {
			return err
		}
	}
	if err := writeHistLine(w, name, key, "+Inf", h.N()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, key, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, key, h.N())
	return err
}

// writeHistLine emits one `_bucket` sample, splicing le into any
// existing label set.
func writeHistLine(w io.Writer, name, key, le string, v int64) error {
	if key == "" {
		_, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, v)
		return err
	}
	// key is "{a="b",...}" — splice le before the closing brace.
	inner := key[1 : len(key)-1]
	_, err := fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, inner, le, v)
	return err
}

// sortedKeys returns m's keys sorted (generic over the three series
// map types).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
