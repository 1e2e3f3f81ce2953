package monitor

import (
	"repro/internal/fabric"
	"repro/internal/sim"
)

// Recovery events. Every involuntary change to an allocation's
// existence or backing — a revocation, a donor failover, a migration,
// a preemption — is handed to the MN's OnLease sink, so the plane
// above (core.Plane, which sets the flat MN's sink) surfaces recovery on
// its one event stream instead of polling the RAT. A sub-MN and the root
// MN move and revoke nothing, so they announce nothing. Grants
// and frees have no event here: the plane announces those itself,
// where the requested resource kind (memory vs swap) is still known.

// LeaseEventType classifies a recovery transition.
type LeaseEventType int

const (
	// LeaseRevoked fires when recovery destroys a lease involuntarily:
	// the recipient died, or the donor died with no surviving candidate
	// to back the window.
	LeaseRevoked LeaseEventType = iota
	// LeaseFailedOver fires when recovery re-placed a lease onto a new
	// donor.
	LeaseFailedOver
	// LeaseMigrated fires when the telemetry-driven migration loop moved
	// a live lease to a donor behind a cooler path (the old donor stays
	// healthy and gets its region back).
	LeaseMigrated
	// LeasePreempted fires when the admission plane revoked a
	// Preemptible-class lease to make room for a higher class
	// (admission.go). The victim's window goes dead like a revocation,
	// but the donor is alive — re-acquiring (with backoff) is expected.
	LeasePreempted
)

// String names the event type.
func (t LeaseEventType) String() string {
	switch t {
	case LeaseRevoked:
		return "revoked"
	case LeaseFailedOver:
		return "failed-over"
	case LeaseMigrated:
		return "migrated"
	case LeasePreempted:
		return "preempted"
	default:
		return "unknown"
	}
}

// LeaseEvent is one recovery transition. Alloc is a copy of the
// allocation row as of the event (for failed-over events it carries the
// NEW donor; OldDonor names the one being replaced).
type LeaseEvent struct {
	Type     LeaseEventType
	At       sim.Time
	Alloc    Allocation
	OldDonor fabric.NodeID
}

// emitLease hands one recovery transition of an allocation row to the
// MN's sink.
func (m *Monitor) emitLease(t LeaseEventType, a *Allocation, oldDonor fabric.NodeID) {
	if m.OnLease != nil {
		m.OnLease(LeaseEvent{Type: t, At: m.EP.Eng.Now(), Alloc: *a, OldDonor: oldDonor})
	}
}
