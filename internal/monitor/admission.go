package monitor

import (
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// This file is the monitor plane's half of the tenancy subsystem: the
// admission gate that onAlloc runs for class-tagged requests, and the
// preemption engine that revokes Preemptible-class leases when a higher
// class would otherwise be rejected. Both run once for every resource,
// in its own unit (bytes of memory, units of one device class). Policy
// itself (the per-class thresholds, the Decide function) lives in
// internal/tenancy; this file owns pressure measurement, the bounded
// queue wait, and the victim scan — the parts that need the MN's
// tables and its blocking RPC machinery.
//
// Every handler here runs in its own transport proc, so the queue wait
// may sleep without wedging the MN: other requests (and the frees and
// preemptions that relieve pressure) keep being serviced meanwhile.
// On a sub-MN the gate sees only its rack's pressure — each rack
// admits against its own pool, mirroring how the sharded plane splits
// every other table.

// pressure reports the pool's current free amount and capacity of res:
// free sums the live RRT rows, capacity adds back the amount leased out
// in live RAT rows of res (so capacity stays stable as grants move
// amounts from free to leased). Spare-pool carves are deliberately not
// added back — a region parked for failover is not admittable capacity.
func (m *Monitor) pressure(res Resource) (free, capacity uint64) {
	for _, r := range m.rrt {
		if r.Dead || !m.NodeAlive(r.Node) {
			continue
		}
		free += r.free(res)
	}
	capacity = free
	for _, a := range m.rat {
		if a.Kind != res || !m.NodeAlive(a.Donor) {
			continue
		}
		capacity += a.Size
	}
	return free, capacity
}

// admit runs the admission controller for one class-tagged request for
// amount of res. It returns the granted amount — amount when admitted
// in full, smaller when degraded — or rejected=true. A Queue verdict
// parks the request right here, re-running the decision every poll tick
// until it admits or the class's MaxWait expires; expiry falls through
// to the preemption attempt (classes above Preemptible only) and then
// to rejection. A one-unit device request is never degraded: a degraded
// grant must be at least 1 and below the request.
func (m *Monitor) admit(p *sim.Proc, from fabric.NodeID, res Resource, amount uint64, class tenancy.Class) (granted uint64, rejected bool) {
	cfg := m.Admission
	dec, g := m.decide(res, amount, class)
	if dec == tenancy.Queue {
		m.Stats.Add("admit.queued", 1)
		var waited sim.Dur
		maxWait := cfg.PerClass[class].MaxWait
		for dec == tenancy.Queue && waited < maxWait {
			p.Sleep(cfg.Poll())
			waited += cfg.Poll()
			dec, g = m.decide(res, amount, class)
		}
		if dec == tenancy.Admit || dec == tenancy.Degrade {
			m.Stats.Add("admit.queue_admits", 1)
		} else {
			// The wait is over and pressure never relented; from here the
			// request is treated exactly like an immediate rejection.
			dec = tenancy.Reject
		}
	}
	if dec == tenancy.Reject && class > tenancy.Preemptible && cfg.Preempt {
		if m.preempt(p, from, res, amount, class) {
			dec, g = m.decide(res, amount, class)
		}
	}
	switch dec {
	case tenancy.Admit:
		return amount, false
	case tenancy.Degrade:
		m.Stats.Add("admit.degraded", 1)
		return g, false
	}
	return 0, true
}

// decide evaluates one request against current pressure.
func (m *Monitor) decide(res Resource, amount uint64, class tenancy.Class) (tenancy.Decision, uint64) {
	free, capacity := m.pressure(res)
	return m.Admission.Decide(class, amount, free, capacity)
}

// preempt revokes Preemptible-class leases of res until the pending
// request both clears its class budget and has a live donor other than
// the requester with amount free — or the pool runs out of victims.
// Victim order is deterministic: donors in node-id order (preferring
// one that can reach a fit), rows in RAT-id order within a donor.
// Reports whether the caller should re-run the decision.
func (m *Monitor) preempt(p *sim.Proc, from fabric.NodeID, res Resource, amount uint64, class tenancy.Class) bool {
	preempted := false
	for {
		if dec, _ := m.decide(res, amount, class); dec == tenancy.Admit || dec == tenancy.Degrade {
			if m.donorFits(from, res, amount) {
				return true
			}
		}
		victim := m.pickVictim(from, res, amount)
		if victim == nil {
			if !preempted {
				m.Stats.Add("preempt.exhausted", 1)
			}
			return preempted
		}
		m.preemptLease(p, victim)
		preempted = true
	}
}

// donorFits reports whether some live donor other than the requester
// has amount of res free — for memory, the contiguity condition a
// budget-level Decide cannot see.
func (m *Monitor) donorFits(requester fabric.NodeID, res Resource, amount uint64) bool {
	for _, r := range m.rrt {
		if r.Node == requester || r.Dead || !m.NodeAlive(r.Node) {
			continue
		}
		if r.free(res) >= amount {
			return true
		}
	}
	return false
}

// pickVictim selects the next Preemptible lease of res to revoke: the
// lowest-RAT-id row on the first donor (node-id order) whose
// free-plus-preemptible amount could reach a fit for the pending
// request. When no donor can ever fit it, the first victim in the same
// order still goes — its amount lowers the class's budget usage even if
// the fit is out of reach.
func (m *Monitor) pickVictim(requester fabric.NodeID, res Resource, amount uint64) *Allocation {
	fallback := -1
	for _, id := range m.sortedDonorIDs() {
		r := m.rrt[id]
		if r.Dead || !m.NodeAlive(id) {
			continue
		}
		low := -1
		preemptible := uint64(0)
		for _, aid := range sortedKeys(m.rat) {
			a := m.rat[aid]
			if a.Donor != id || a.Kind != res || a.Class != tenancy.Preemptible {
				continue
			}
			preemptible += a.Size
			if low < 0 {
				low = aid
			}
		}
		if low < 0 {
			continue
		}
		if id != requester && r.free(res)+preemptible >= amount {
			return m.rat[low]
		}
		if fallback < 0 {
			fallback = low
		}
	}
	if fallback >= 0 {
		return m.rat[fallback]
	}
	return nil
}

// sortedDonorIDs returns the RRT's node ids in ascending order — the
// deterministic scan order the victim walk shares with the recovery
// sweep.
func (m *Monitor) sortedDonorIDs() []fabric.NodeID {
	ids := make([]fabric.NodeID, 0, len(m.rrt))
	for id := range m.rrt {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// preemptLease revokes one Preemptible lease through the same machinery
// recovery uses for a donor that died with no candidate — except the
// donor here is alive, so the backing goes straight back to it. A memory
// victim's agent gets the standard revoke notice (window goes dead,
// parked accesses unwedge), parked for sweep retry if the delivery is
// lost; device clients follow the event stream. The row's lifecycle
// stream announces LeasePreempted so the victim can re-acquire with
// backoff.
func (m *Monitor) preemptLease(p *sim.Proc, a *Allocation) {
	delete(m.rat, a.ID)
	m.releaseBacking(p, a)
	if a.Kind == Memory {
		rv := &revokeReq{AllocID: a.ID, RecipientBase: a.RecipientBase, Size: a.Size}
		recipientInc := m.incarnationOf(a.Recipient)
		if _, ok := m.EP.CallTimeout(p, a.Recipient, kindRevoke, 32, rv, m.GrantTimeout); !ok {
			m.pendingRevokes[a.ID] = &pendingNotice[revokeReq]{
				req: rv, recipient: a.Recipient, recipientInc: recipientInc,
			}
			m.Stats.Add("preempt.revoke_lost", 1)
		}
	}
	m.Stats.Add(pick(a.Kind, "preempt.memory", "preempt.device"), 1)
	m.emitLease(LeasePreempted, a, a.Donor)
	m.notifyDelegateMoved(p, a.Deleg, a.Donor, true)
}
