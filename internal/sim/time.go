// Package sim provides the deterministic discrete-event simulation engine
// that underpins the Venice reproduction: virtual time, an event queue,
// blocking simulated processes, deterministic random numbers, and the
// timing parameters calibrated against the paper's hardware prototype.
//
// The engine is strictly single-threaded from the simulation's point of
// view: each process runs on a coroutine (iter.Pull) that the engine
// switches into and the process switches out of, so exactly one of
// (engine, some process) executes at any instant. Given the same seed
// and the same program, every run produces the identical event trace.
package sim

import "fmt"

// Time is an instant in virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Dur is a span of virtual time in nanoseconds.
type Dur int64

// Common durations.
const (
	Nanosecond  Dur = 1
	Microsecond Dur = 1000 * Nanosecond
	Millisecond Dur = 1000 * Microsecond
	Second      Dur = 1000 * Millisecond
)

// Add returns the instant d after t.
func (t Time) Add(d Dur) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Dur { return Dur(t - u) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports d as a floating-point number of seconds.
func (d Dur) Seconds() float64 { return float64(d) / float64(Second) }

// Micros reports d as a floating-point number of microseconds.
func (d Dur) Micros() float64 { return float64(d) / float64(Microsecond) }

// String formats a time with an adaptive unit, e.g. "1.400µs" or "2.3s".
func (t Time) String() string { return Dur(t).String() }

// String formats a duration with an adaptive unit.
func (d Dur) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < 10*Millisecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	case d < 10*Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	}
}

// DurFromSeconds converts floating-point seconds into a Dur, rounding to
// the nearest nanosecond.
func DurFromSeconds(s float64) Dur { return Dur(s*float64(Second) + 0.5) }

// Scale multiplies d by a dimensionless factor, rounding to the nearest
// nanosecond. It panics if the factor is negative.
func (d Dur) Scale(f float64) Dur {
	if f < 0 {
		panic("sim: negative duration scale")
	}
	return Dur(float64(d)*f + 0.5)
}
