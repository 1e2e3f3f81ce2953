package main

import (
	"math"

	"repro/internal/sim"
)

// Seed streams. The measured requests' arrival instants and inputs
// (keys, offsets, tenants, classes) draw from mix(trial seed, stream),
// so one --seed fixes every input. The rig itself — cluster, background
// traffic, calibration — draws from rigSeed(stream) and is the same in
// every trial of every run: each trial is offered the same rate, and
// set-up repeats the same work.
const (
	streamCluster uint64 = iota + 1
	streamArrivals
	streamKeys
	streamBackground
	streamCalibrate
)

// rigSeed seeds a stream of the fixed rig.
func rigSeed(stream uint64) uint64 { return mix(0x7e57_819, stream) }

// mix derives a child seed from seed and salt with one splitmix64
// finalizer round per salt.
func mix(seed uint64, salts ...uint64) uint64 {
	z := seed
	for _, s := range salts {
		z += 0x9e3779b97f4a7c15 ^ s*0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// arrivals draws the gaps between an open loop's due instants: a
// Poisson stream, or a two-state Markov-modulated Poisson process whose
// bursty state runs at burstFactor × the mean rate for burstFrac of the
// time, with mean burst dwell burstDwell.
type arrivals struct {
	rng       *sim.RNG
	quiet     float64 // arrivals per ns in the quiet (or only) state
	burst     float64 // arrivals per ns in the bursty state
	dwell     [2]float64
	inBurst   bool
	stateLeft float64 // ns left in the current state
}

// poisson returns a Poisson stream of meanRPS arrivals per second.
func poisson(rng *sim.RNG, meanRPS float64) *arrivals {
	perNS := meanRPS / 1e9
	return &arrivals{rng: rng, quiet: perNS, burst: perNS, stateLeft: math.Inf(1)}
}

// flashCrowd returns the flash-crowd MMPP at meanRPS: bursts at 8× the
// mean rate for 10% of the time with 500 µs mean dwells, and a quiet
// state at the rate that keeps the long-run mean.
func flashCrowd(rng *sim.RNG, meanRPS float64) *arrivals {
	const factor, frac, burstDwell = 8.0, 0.1, 500e3
	perNS := meanRPS / 1e9
	a := &arrivals{
		rng:   rng,
		quiet: perNS * (1 - frac*factor) / (1 - frac),
		burst: perNS * factor,
		dwell: [2]float64{burstDwell * (1 - frac) / frac, burstDwell},
	}
	a.stateLeft = a.exp(1 / a.dwell[0])
	return a
}

// exp samples an exponential variate with the given rate per ns.
func (a *arrivals) exp(rate float64) float64 {
	return -math.Log(1-a.rng.Float64()) / rate
}

// next returns the virtual time until the next due instant (at least
// 1 ns, the engine's resolution).
func (a *arrivals) next() sim.Dur {
	var elapsed float64
	for {
		rate := a.quiet
		if a.inBurst {
			rate = a.burst
		}
		d := a.exp(rate)
		if d <= a.stateLeft {
			a.stateLeft -= d
			return sim.Dur(math.Max(1, elapsed+d))
		}
		// The state ends first; the exponential is memoryless, so
		// resampling in the next state is exact.
		elapsed += a.stateLeft
		a.inBurst = !a.inBurst
		s := 0
		if a.inBurst {
			s = 1
		}
		a.stateLeft = a.exp(1 / a.dwell[s])
	}
}
