// Package tenancy is the policy layer over Venice's resource plane:
// tenant identities with priority classes, per-class admission limits,
// and the knobs the monitor plane consults when deciding whether a
// grant is admitted outright, degraded to a smaller window, queued for
// a bounded wait, or rejected — and whether Preemptible-class leases
// may be revoked to make room for a higher class.
//
// The package is deliberately mechanism-free: Decide is a pure function
// of (class, request size, pool pressure), and the monitor plane owns
// the donor walk, the queue poll, and the preemption scan. That split
// keeps the policy unit-testable without a cluster and lets the same
// Config drive the flat Monitor and the sharded sub-MNs alike.
package tenancy

import (
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// Class is a tenant's priority class. The zero value ClassNone marks an
// untagged request: admission never gates it and preemption never
// targets it, so pre-tenancy callers keep today's behavior bit for bit.
// Higher numeric value = higher priority.
type Class uint8

const (
	// ClassNone is the untagged default: invisible to admission.
	ClassNone Class = iota
	// Preemptible tenants trade eviction risk for cheap capacity: they
	// are admitted only under the lowest pressure threshold and their
	// leases are the preemption engine's victims.
	Preemptible
	// Standard tenants get best-effort service with bounded queueing.
	Standard
	// Latency tenants are the interactive tier: admitted up to the full
	// pool and allowed to preempt rather than wait.
	Latency

	// NumClasses sizes per-class tables (ClassNone included).
	NumClasses = 4
)

// Classes lists the tagged classes from highest to lowest priority —
// the order admission favors them and scenarios report them.
func Classes() [3]Class { return [3]Class{Latency, Standard, Preemptible} }

var classNames = map[Class]string{
	ClassNone:   "none",
	Preemptible: "preemptible",
	Standard:    "standard",
	Latency:     "latency",
}

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// MarshalJSON renders the pinned wire name ("latency", "standard",
// "preemptible", "none") so logs and SSE streams stay greppable.
func (c Class) MarshalJSON() ([]byte, error) {
	s, ok := classNames[c]
	if !ok {
		return nil, fmt.Errorf("tenancy: marshal unknown class %d", uint8(c))
	}
	return json.Marshal(s)
}

// UnmarshalJSON accepts exactly the pinned names.
func (c *Class) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for k, v := range classNames {
		if v == s {
			*c = k
			return nil
		}
	}
	return fmt.Errorf("tenancy: unknown class %q", s)
}

// Limits is one class's admission envelope.
type Limits struct {
	// ReserveFrac is the fraction of pool capacity this class may push
	// total usage to: a request is admitted outright while
	// used+size <= ReserveFrac*capacity. 1.0 means "up to the full
	// pool"; lower fractions keep headroom reserved for higher classes.
	ReserveFrac float64
	// MaxWait bounds how long an over-threshold request may queue at
	// the MN waiting for pressure to drop. Zero disables queueing: the
	// request falls straight through to preemption (if eligible) or
	// rejection.
	MaxWait sim.Dur
	// DegradeFrac enables degraded grants: when the full size does not
	// fit under the threshold but at least DegradeFrac*size does, the
	// MN grants the remaining headroom as a smaller window instead of
	// rejecting. Zero disables degradation.
	DegradeFrac float64
	// SLOMult is the class's latency SLO target as a multiple of the
	// scenario's calibrated unloaded service time. Policy code ignores
	// it; scenarios use it for per-class SLO-miss accounting.
	SLOMult float64
}

// Config is the admission controller's policy: per-class limits. A
// Standard or Latency request that would otherwise be rejected revokes
// Preemptible-class leases instead. A nil *Config on the monitor plane
// disables admission entirely.
type Config struct {
	// PerClass is indexed by Class. The ClassNone entry is ignored —
	// untagged requests bypass admission.
	PerClass [NumClasses]Limits
}

// PollInterval is how often a queued request re-evaluates pressure
// while waiting out its class's MaxWait.
const PollInterval = 100 * sim.Microsecond

// Default returns the reference policy used by the serving-tenancy
// scenario: Latency admits to the full pool and preempts rather than
// waits; Standard queues up to 2ms and accepts half-size grants;
// Preemptible lives under a 60% ceiling and accepts quarter-size
// grants.
func Default() *Config {
	return &Config{
		PerClass: [NumClasses]Limits{
			Preemptible: {ReserveFrac: 0.60, DegradeFrac: 0.25, SLOMult: 16},
			Standard:    {ReserveFrac: 0.85, MaxWait: 2 * sim.Millisecond, DegradeFrac: 0.5, SLOMult: 8},
			Latency:     {ReserveFrac: 1.0, SLOMult: 4},
		},
	}
}

// Decision is the admission controller's verdict for one request.
type Decision int

const (
	// Admit grants the full requested size now.
	Admit Decision = iota
	// Degrade grants a smaller window now (the second return value of
	// Decide carries the granted size).
	Degrade
	// Queue holds the request at the MN for up to the class's MaxWait,
	// re-running Decide each poll tick.
	Queue
	// Reject declines the request; the caller surfaces
	// core.ErrAdmissionRejected (after an optional preemption attempt
	// for classes above Preemptible).
	Reject
)

func (d Decision) String() string {
	switch d {
	case Admit:
		return "admit"
	case Degrade:
		return "degrade"
	case Queue:
		return "queue"
	case Reject:
		return "reject"
	}
	return fmt.Sprintf("decision(%d)", int(d))
}

// degradeAlign keeps degraded grants page-aligned so window arithmetic
// downstream never sees sub-page sizes.
const degradeAlign = 4096

// Decide evaluates one request of class c for size units against the
// pool's current idle and capacity (same units as size: bytes for
// memory, device counts for accelerators/NICs). It returns the verdict
// and the granted size — size itself for Admit, the smaller degraded
// size for Degrade, and 0 otherwise. Decide is pure: callers own
// queueing, preemption, and re-evaluation.
func (c *Config) Decide(class Class, size, idle, capacity uint64) (Decision, uint64) {
	if class == ClassNone || class >= NumClasses {
		return Admit, size
	}
	lim := c.PerClass[class]
	budget := uint64(lim.ReserveFrac * float64(capacity))
	var used uint64
	if capacity > idle {
		used = capacity - idle
	}
	if used+size <= budget {
		return Admit, size
	}
	if lim.DegradeFrac > 0 && budget > used {
		g := budget - used
		if size >= degradeAlign {
			g &^= degradeAlign - 1
		}
		min := uint64(lim.DegradeFrac * float64(size))
		if min == 0 {
			min = 1
		}
		if g >= min && g < size {
			return Degrade, g
		}
	}
	if lim.MaxWait > 0 {
		return Queue, 0
	}
	return Reject, 0
}

// Backoff is the victim-side re-acquire schedule after a preemption:
// exponential from Base, capped at Max. The zero value defaults to
// 500µs doubling up to 8ms.
type Backoff struct {
	Base sim.Dur
	Max  sim.Dur
}

// Delay reports the wait before re-acquire attempt n (n starts at 0).
func (b Backoff) Delay(attempt int) sim.Dur {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 500 * sim.Microsecond
	}
	if max <= 0 {
		max = 8 * sim.Millisecond
	}
	if attempt < 0 {
		attempt = 0
	}
	d := base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		d = max
	}
	return d
}

// Jain computes the Jain fairness index (Σx)²/(n·Σx²) over per-tenant
// or per-class shares: 1.0 is perfectly fair, 1/n is a single winner.
// Empty or all-zero input reports 1.0 (nothing to be unfair about).
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
