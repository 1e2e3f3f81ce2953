package monitor

import (
	"sync"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Lease-lifecycle events. Every change to an allocation's existence or
// backing — a grant, a voluntary free, a recovery revocation, a donor
// failover — is announced to registered observers, so metrics and
// scenario code consume one event stream instead of polling the RAT.
// The core layer (core.Plane) subscribes here to surface recovery
// events on its unified observer; grants and frees it also emits
// itself, where the requested resource kind (memory vs swap) is still
// known.

// LeaseEventType classifies a lease-lifecycle transition.
type LeaseEventType int

const (
	// LeaseGranted fires when a RAT row is created (a grant completed,
	// including delegated cross-rack backings).
	LeaseGranted LeaseEventType = iota
	// LeaseReleased fires when a RAT row is torn down voluntarily (the
	// recipient freed it, or the root tore down a delegated backing).
	LeaseReleased
	// LeaseRevoked fires when recovery destroys a lease involuntarily:
	// the recipient died, or the donor died with no surviving candidate
	// to back the window.
	LeaseRevoked
	// LeaseFailedOver fires when recovery re-placed a lease onto a new
	// donor (rack-local failover, or a root-MN re-delegation).
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
	case LeaseGranted:
		return "granted"
	case LeaseReleased:
		return "released"
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

// LeaseEvent is one lease-lifecycle transition. Alloc is a copy of the
// allocation row as of the event (for failed-over events it carries the
// NEW donor; OldDonor names the one being replaced). Root-MN events
// synthesize Alloc from the delegation row, so ID is the delegation id
// there.
type LeaseEvent struct {
	Type     LeaseEventType
	At       sim.Time
	Alloc    Allocation
	OldDonor fabric.NodeID
}

// LeaseObserver consumes lease-lifecycle events. Observers run
// synchronously on the monitor's handler path and must not block; they
// cost no virtual time.
type LeaseObserver func(LeaseEvent)

// leaseObservers is the shared registration list (Monitor and Root).
// Registration and cancel take the mutex so an observer cancelling
// itself (or another goroutine cancelling it) during an emit cannot
// corrupt the slice; emit delivers against a snapshot.
type leaseObservers struct {
	mu  sync.Mutex
	fns []LeaseObserver
}

// observe registers fn and returns its cancel.
func (o *leaseObservers) observe(fn LeaseObserver) (cancel func()) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.fns = append(o.fns, fn)
	i := len(o.fns) - 1
	return func() {
		o.mu.Lock()
		o.fns[i] = nil
		o.mu.Unlock()
	}
}

// empty reports whether no observer is registered (cheap emit guard).
func (o *leaseObservers) empty() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.fns) == 0
}

// emit delivers ev to every live observer in registration order.
func (o *leaseObservers) emit(ev LeaseEvent) {
	o.mu.Lock()
	snap := append([]LeaseObserver(nil), o.fns...)
	o.mu.Unlock()
	for _, fn := range snap {
		if fn != nil {
			fn(ev)
		}
	}
}

// Observe registers a lease-lifecycle observer with this Monitor (a
// flat cluster's MN or one rack's sub-MN) and returns a cancel.
func (m *Monitor) Observe(fn LeaseObserver) (cancel func()) { return m.observers.observe(fn) }

// emitLease announces one lifecycle transition for an allocation row.
func (m *Monitor) emitLease(t LeaseEventType, a *Allocation, oldDonor fabric.NodeID) {
	if m.observers.empty() {
		return
	}
	m.observers.emit(LeaseEvent{Type: t, At: m.EP.Eng.Now(), Alloc: *a, OldDonor: oldDonor})
}

// Observe registers a lease-lifecycle observer with the root MN (it
// announces cross-rack re-delegations and reclaims) and returns a
// cancel.
func (rt *Root) Observe(fn LeaseObserver) (cancel func()) { return rt.observers.observe(fn) }

// emitDelegation announces one lifecycle transition for a delegation
// row, synthesized into the Allocation shape observers already consume.
func (rt *Root) emitDelegation(t LeaseEventType, d *Delegation, oldDonor fabric.NodeID) {
	if rt.observers.empty() {
		return
	}
	rt.observers.emit(LeaseEvent{
		Type: t,
		At:   rt.EP.Eng.Now(),
		Alloc: Allocation{
			ID: d.ID, Kind: d.Kind, Donor: d.Donor, Recipient: d.Recipient,
			RecipientBase: d.RecipientBase, Size: d.Size, At: d.At, Deleg: d.ID,
			Trace: d.Trace, Tenant: d.Tenant, Class: d.Class,
		},
		OldDonor: oldDonor,
	})
}
