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
// Six scenarios share one open-loop phase (openLoop, openloop.go): KV
// and Tier (serving.go) on single-rack meshes; churn (churn.go) adding
// fault-schedule-driven donor crashes; Scale (scale.go) on multi-rack
// rack/spine fabrics where leases are brokered by the sharded monitor
// plane and a configurable fraction of the working set crosses the
// oversubscribed spine; Inference (inference.go) on leased remote
// accelerators and NICs; and tenancy (tenancy.go), SLO classes
// competing for an oversubscribed lease pool. Churn and flat inference
// share one rig (churnRig), as do Scale and hierarchical inference
// (newHierRig).
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

// ArrivalSpec shapes an arrival process. The absolute rate is supplied
// at sampler construction (it is derived from the calibrated service
// capacity), so the spec carries only the process shape.
type ArrivalSpec struct {
	Kind ArrivalKind
	// BurstFactor is the bursty state's rate as a multiple of the mean
	// rate (MMPP only; default 3).
	BurstFactor float64
	// BurstFrac is the long-run fraction of time spent in the bursty
	// state (MMPP only; default 0.2). The quiet state's rate is derived
	// so the process mean equals the configured rate.
	BurstFrac float64
	// BurstDwell is the mean dwell time of the bursty state (MMPP only;
	// default 200 µs).
	BurstDwell sim.Dur
}

// flashCrowd is the flash-crowd arrival preset: a two-state MMPP whose
// bursty state runs at 8× the mean rate for ~10% of the time with
// 500 µs mean dwells — long, hard spikes against a correspondingly
// quieter baseline (quiet-state rate ≈ 0.22× mean), the
// diurnal-peak/viral-event shape the tenancy scenario stresses
// admission control with.
func flashCrowd() ArrivalSpec {
	return ArrivalSpec{
		Kind:        MMPP,
		BurstFactor: 8,
		BurstFrac:   0.1,
		BurstDwell:  500 * sim.Microsecond,
	}
}

func (s ArrivalSpec) burstFactor() float64 {
	if s.BurstFactor > 0 {
		return s.BurstFactor
	}
	return 3
}

func (s ArrivalSpec) burstFrac() float64 {
	if s.BurstFrac > 0 {
		return s.BurstFrac
	}
	return 0.2
}

func (s ArrivalSpec) burstDwell() sim.Dur {
	if s.BurstDwell > 0 {
		return s.BurstDwell
	}
	return 200 * sim.Microsecond
}

// String names the process for tables and trial ids.
func (s ArrivalSpec) String() string {
	if s.Kind == MMPP {
		return string(MMPP)
	}
	return string(Poisson)
}

// validate rejects parameterizations that have no consistent MMPP
// interpretation, so bad configs surface as errors from Run instead of
// panicking inside the simulation (or silently degenerating).
func (s ArrivalSpec) validate() error {
	switch s.Kind {
	case "", Poisson:
		return nil
	case MMPP:
	default:
		return fmt.Errorf("serving: unknown arrival kind %q", s.Kind)
	}
	f, k := s.burstFrac(), s.burstFactor()
	if f >= 1 {
		return fmt.Errorf("serving: MMPP burst fraction %v must be in (0, 1)", f)
	}
	if k <= 1 {
		return fmt.Errorf("serving: MMPP burst factor %v must exceed 1", k)
	}
	if f*k >= 1 {
		return fmt.Errorf("serving: MMPP burst factor %v × fraction %v >= 1 leaves no quiet-state rate", k, f)
	}
	return nil
}

// sampler draws successive inter-arrival times. All randomness comes
// from the supplied RNG, so a seed fully determines the stream.
type sampler struct {
	spec      ArrivalSpec
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
	s := &sampler{spec: spec, rng: rng}
	if spec.Kind != MMPP {
		s.rateQuiet, s.rateBurst = perNS, perNS
		s.stateLeft = sim.Dur(math.MaxInt64)
		return s
	}
	f, k := spec.burstFrac(), spec.burstFactor()
	// mean = f*burst + (1-f)*quiet, with burst = k*mean.
	quiet := perNS * (1 - f*k) / (1 - f)
	if quiet <= 0 {
		panic(fmt.Sprintf("serving: MMPP burst factor %v × frac %v leaves no quiet-state rate", k, f))
	}
	s.rateQuiet, s.rateBurst = quiet, perNS*k
	s.stateLeft = s.expDur(1 / float64(s.quietDwell()))
	return s
}

// quietDwell derives the quiet state's mean dwell from the bursty
// state's so the long-run burst fraction comes out right.
func (s *sampler) quietDwell() sim.Dur {
	f := s.spec.burstFrac()
	return sim.Dur(float64(s.spec.burstDwell()) * (1 - f) / f)
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
			s.stateLeft = s.expDur(1 / float64(s.spec.burstDwell()))
		} else {
			s.stateLeft = s.expDur(1 / float64(s.quietDwell()))
		}
	}
}
