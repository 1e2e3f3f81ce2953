// Package serving is the cluster-scale serving scenario family: an
// open-loop load generator (seeded Poisson or MMPP arrivals) drives the
// key-value and cache-tier workloads across a multi-node Venice mesh
// while co-located tenants lease remote memory through the Monitor
// Node's sharing policies, and every request's end-to-end latency lands
// in a mergeable streaming histogram. Open-loop means arrivals never
// wait for completions — exactly the regime where oversubscribed
// resource sharing shows up in the tail, which closed-loop batch
// experiments (figs. 3–18) cannot observe.
//
// Six scenarios share one entry point, Run, which takes one Config and
// returns one Result, and one open-loop phase (openLoop, openloop.go):
// KV and Tier (serving.go) on single-rack meshes; Churn (churn.go)
// adding fault-schedule-driven donor crashes; Scale (scale.go) on
// multi-rack rack/spine fabrics where leases are brokered by the
// sharded monitor plane and a configurable fraction of the working set
// crosses the oversubscribed spine; Inference (inference.go) on leased
// remote accelerators and NICs; and Tenancy (tenancy.go), SLO classes
// competing for an oversubscribed lease pool. Config.Workload picks the
// scenario. Churn and flat inference share one rig (churnRig), as do
// Scale and hierarchical inference (newHierRig).
package serving

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// ArrivalKind selects the arrival process family.
type ArrivalKind string

const (
	// Poisson is a memoryless open-loop stream: exponential
	// inter-arrivals at a fixed rate.
	Poisson ArrivalKind = "poisson"
	// MMPP is a two-state Markov-modulated Poisson process: the stream
	// alternates between a quiet and a bursty state, each with
	// exponentially distributed dwell times, keeping the configured mean
	// rate while concentrating arrivals into bursts.
	MMPP ArrivalKind = "mmpp"
)

// ArrivalSpec names an arrival process. The absolute rate is supplied
// at sampler construction (it is derived from the calibrated service
// capacity), and an MMPP's shape is a fixed preset, so the spec carries
// only the process kind.
type ArrivalSpec struct {
	Kind ArrivalKind
	// flash selects the flash-crowd MMPP shape in place of the default
	// one; only the tenancy scenario sets it.
	flash bool
}

// mmppShape is a two-state MMPP preset: the bursty state's rate as a
// multiple of the mean rate, the long-run fraction of time spent in the
// bursty state, and that state's mean dwell time. The quiet state's
// rate and dwell are derived so the process mean equals the configured
// rate and the burst fraction comes out right.
type mmppShape struct {
	factor float64
	frac   float64
	dwell  sim.Dur
}

var (
	// defaultMMPP bursts at 3× the mean rate for 20% of the time, with
	// 200 µs mean dwells.
	defaultMMPP = mmppShape{factor: 3, frac: 0.2, dwell: 200 * sim.Microsecond}
	// flashCrowdMMPP is the flash-crowd shape: the bursty state runs at
	// 8× the mean rate for ~10% of the time with 500 µs mean dwells —
	// long, hard spikes against a correspondingly quieter baseline
	// (quiet-state rate ≈ 0.22× mean), the diurnal-peak/viral-event
	// shape the tenancy scenario stresses admission control with.
	flashCrowdMMPP = mmppShape{factor: 8, frac: 0.1, dwell: 500 * sim.Microsecond}
)

// flashCrowd is the tenancy scenario's arrival process.
func flashCrowd() ArrivalSpec { return ArrivalSpec{Kind: MMPP, flash: true} }

// shape reports the spec's MMPP preset.
func (s ArrivalSpec) shape() mmppShape {
	if s.flash {
		return flashCrowdMMPP
	}
	return defaultMMPP
}

// String names the process for tables and trial ids.
func (s ArrivalSpec) String() string {
	if s.Kind == MMPP {
		return string(MMPP)
	}
	return string(Poisson)
}

// validate rejects an unknown arrival kind, so a bad config surfaces
// as an error from Run instead of silently running Poisson.
func (s ArrivalSpec) validate() error {
	switch s.Kind {
	case "", Poisson, MMPP:
		return nil
	}
	return fmt.Errorf("serving: unknown arrival kind %q", s.Kind)
}

// sampler draws successive inter-arrival times. All randomness comes
// from the supplied RNG, so a seed fully determines the stream.
type sampler struct {
	shape     mmppShape
	rng       *sim.RNG
	rateQuiet float64 // arrivals per ns
	rateBurst float64
	inBurst   bool
	stateLeft sim.Dur // virtual time remaining in the current state
}

// newSampler builds a sampler producing meanRPS arrivals per second on
// average.
func newSampler(spec ArrivalSpec, meanRPS float64, rng *sim.RNG) *sampler {
	if meanRPS <= 0 {
		panic(fmt.Sprintf("serving: non-positive arrival rate %v", meanRPS))
	}
	perNS := meanRPS / 1e9
	s := &sampler{shape: spec.shape(), rng: rng}
	if spec.Kind != MMPP {
		s.rateQuiet, s.rateBurst = perNS, perNS
		s.stateLeft = sim.Dur(math.MaxInt64)
		return s
	}
	f, k := s.shape.frac, s.shape.factor
	// mean = f*burst + (1-f)*quiet, with burst = k*mean; every preset
	// keeps f*k below 1, so the quiet rate is positive.
	s.rateQuiet, s.rateBurst = perNS*(1-f*k)/(1-f), perNS*k
	s.stateLeft = s.expDur(1 / float64(s.quietDwell()))
	return s
}

// quietDwell derives the quiet state's mean dwell from the bursty
// state's so the long-run burst fraction comes out right.
func (s *sampler) quietDwell() sim.Dur {
	f := s.shape.frac
	return sim.Dur(float64(s.shape.dwell) * (1 - f) / f)
}

// expDur samples an exponential duration with the given rate (per ns).
func (s *sampler) expDur(rate float64) sim.Dur {
	u := s.rng.Float64()
	d := -math.Log(1-u) / rate
	if d < 1 {
		d = 1 // quantize to the engine's ns resolution, never zero
	}
	if d > float64(math.MaxInt64)/2 {
		d = float64(math.MaxInt64) / 2
	}
	return sim.Dur(d)
}

// rate reports the current state's arrival rate per ns.
func (s *sampler) rate() float64 {
	if s.inBurst {
		return s.rateBurst
	}
	return s.rateQuiet
}

// Next returns the time until the next arrival, advancing the modulated
// state as virtual time passes.
func (s *sampler) Next() sim.Dur {
	var elapsed sim.Dur
	for {
		d := s.expDur(s.rate())
		if d <= s.stateLeft {
			s.stateLeft -= d
			return elapsed + d
		}
		// The state expires before the would-be arrival: consume the
		// remaining dwell and resample in the next state (the exponential
		// is memoryless, so resampling is exact).
		elapsed += s.stateLeft
		s.inBurst = !s.inBurst
		if s.inBurst {
			s.stateLeft = s.expDur(1 / float64(s.shape.dwell))
		} else {
			s.stateLeft = s.expDur(1 / float64(s.quietDwell()))
		}
	}
}
