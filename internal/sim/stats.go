package sim

import (
	"fmt"
	"math"
)

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// LatencyHist is a streaming log-linear histogram of non-negative
// integer observations (latencies in ns). Each power-of-two range is
// split into 16 linear sub-buckets (≤ 6.25% relative bucket width), so
// tail quantiles stay tight without per-sample storage. All state is
// integral — bucket counts plus exact n/sum/min/max — which makes
// Merge exact: merging shard histograms in any order yields precisely
// the histogram a single sequential recorder would have produced. The
// serving experiments rely on that to keep harness parallelism
// byte-identical. The zero value is ready to use.
type LatencyHist struct {
	n      int64
	sum    int64
	min    int64
	max    int64
	counts [latHistBuckets]int64
}

const (
	latSubBits  = 4               // sub-buckets per octave = 1<<latSubBits
	latSubCount = 1 << latSubBits // 16
	// Highest index is (62-latSubBits+1)*latSubCount + latSubCount-1 = 959
	// for the largest int64 observation; round up to a power of two.
	latHistBuckets = 1024
)

// latIndex maps a non-negative value to its bucket.
func latIndex(v int64) int {
	if v < latSubCount {
		return int(v) // exact buckets for tiny values (including zero)
	}
	exp := log2(uint64(v))
	sub := (v >> uint(exp-latSubBits)) & (latSubCount - 1)
	return (exp-latSubBits+1)*latSubCount + int(sub)
}

// latUpper reports the largest value a bucket can hold.
func latUpper(idx int) int64 {
	if idx < latSubCount {
		return int64(idx)
	}
	exp := idx>>latSubBits + latSubBits - 1
	sub := int64(idx & (latSubCount - 1))
	lower := int64(1)<<uint(exp) + sub<<uint(exp-latSubBits)
	return lower + int64(1)<<uint(exp-latSubBits) - 1
}

// Add records one observation; negative values are clamped to zero.
func (h *LatencyHist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.counts[latIndex(v)]++
}

// AddDur records a duration observation.
func (h *LatencyHist) AddDur(d Dur) { h.Add(int64(d)) }

// N reports the observation count.
func (h *LatencyHist) N() int64 { return h.n }

// Sum reports the exact total of all observations.
func (h *LatencyHist) Sum() int64 { return h.sum }

// Min reports the smallest observation (0 when empty).
func (h *LatencyHist) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest observation (0 when empty).
func (h *LatencyHist) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Mean reports the arithmetic mean (0 when empty).
func (h *LatencyHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns an upper bound for the p-th percentile (p in
// [0,100]): the upper edge of the bucket holding the rank-⌈np/100⌉
// observation, clamped to the exact observed maximum. The result
// depends only on bucket counts and min/max, so merged histograms
// report identical quantiles regardless of merge order.
func (h *LatencyHist) Quantile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(float64(h.n) * p / 100.0))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			u := latUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Merge folds o into h. Merging is exact and commutative: counts, n,
// sum, min, and max combine without loss.
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// LatencyBucket is one nonzero histogram bucket in serialized form.
type LatencyBucket struct {
	Index int
	Count int64
}

// BucketUpper reports the largest value the bucket at idx can hold —
// the inclusive upper edge exporters need to label serialized buckets
// (e.g. Prometheus `le` bounds). It panics on an out-of-range index,
// mirroring RestoreLatencyHist.
func BucketUpper(idx int) int64 {
	if idx < 0 || idx >= latHistBuckets {
		panic(fmt.Sprintf("sim: latency bucket index %d out of range", idx))
	}
	return latUpper(idx)
}

// Buckets returns the nonzero buckets in index order — the serialized
// form a trial exports so that assembly can rebuild and merge shard
// histograms exactly.
func (h *LatencyHist) Buckets() []LatencyBucket {
	var out []LatencyBucket
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, LatencyBucket{Index: i, Count: c})
		}
	}
	return out
}

// RestoreLatencyHist rebuilds a histogram from its serialized state
// (Buckets plus the exact Sum/Min/Max). The restored histogram is
// indistinguishable from the original under every observer, so
// restore-then-merge equals merge-then-serialize.
func RestoreLatencyHist(sum, min, max int64, buckets []LatencyBucket) *LatencyHist {
	h := &LatencyHist{sum: sum, min: min, max: max}
	for _, b := range buckets {
		if b.Index < 0 || b.Index >= latHistBuckets {
			panic(fmt.Sprintf("sim: latency bucket index %d out of range", b.Index))
		}
		h.counts[b.Index] += b.Count
		h.n += b.Count
	}
	return h
}

// String summarizes the distribution for logs.
func (h *LatencyHist) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p50=%d p90=%d p99=%d p999=%d max=%d",
		h.n, h.Mean(), h.Quantile(50), h.Quantile(90), h.Quantile(99), h.Quantile(99.9), h.Max())
}
