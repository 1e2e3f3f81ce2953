package monitor

import (
	"slices"
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// This file is the recovery half of the resource-management runtime —
// the part the paper's prototype leaves on the table when it notes the
// MN "should be replicated" and the TST exists so faults can be routed
// around. Detection has two triggers: the sweep notices nodes whose
// heartbeats stopped (slow path, bounded by HeartbeatTimeout +
// SweepInterval), and onHeartbeat notices incarnation bumps (fast path:
// a node that crashed and rebooted inside the timeout still loses every
// donation it was serving). Recovery then walks the RAT: leases held BY
// the failed node are reclaimed to their donors, and leases donated BY
// it go through replace, the one re-placement walk failover shares with
// migration. A memory lease moves to a survivor elected by the active
// Policy and its recipient retargets and replays in-flight accesses; a
// device lease moves to a survivor with a free unit. With no survivor
// the lease is evicted: a memory window is revoked, and a device
// client's next call surfaces the loss. Every hot-return, relocate and
// revoke whose delivery is lost parks in the MN's outbox (outbox.go),
// and each sweep redelivers what is parked: a donor falsely declared
// dead gets its regions back once it beats again.

// StartRecovery launches the MN's failure-detection and lease-failover
// loop. The loop keeps the event queue non-empty forever, so programs
// that drive the engine with Run (rather than RunFor / step-until-done)
// must StopRecovery first. It panics on a sub-MN (see StartRackBeat).
func (m *Monitor) StartRecovery() {
	m.flatOnly("recovery")
	startLoop(m.EP.Eng, "mn-recovery", &m.recoveryOn, sweepEvery(m.SweepInterval, m.HeartbeatTimeout), m.sweep)
}

// StopRecovery ends the recovery loop after the current sweep.
func (m *Monitor) StopRecovery() { m.recoveryOn = false }

// startLoop sets *on and starts the proc name, which sleeps every and
// then runs pass for as long as *on holds: the shape of every recovery
// sweep and of the migration scan. It starts nothing while *on holds.
func startLoop(eng *sim.Engine, name string, on *bool, every sim.Dur, pass func(*sim.Proc)) {
	if *on {
		return
	}
	*on = true
	eng.Go(name, func(p *sim.Proc) {
		for *on {
			p.Sleep(every)
			pass(p)
		}
	})
}

// sweepEvery is a recovery loop's period: set when positive, else half
// the death timeout, else one second.
func sweepEvery(set, deathTimeout sim.Dur) sim.Dur {
	switch {
	case set > 0:
		return set
	case deathTimeout/2 > 0:
		return deathTimeout / 2
	}
	return sim.Second
}

// sweep runs one detection pass. Iteration is in node-id order so runs
// are deterministic regardless of map layout. The id list reuses the
// last pass's buffer, which the pass holds while it runs: a pass that
// starts while another is blocked takes a buffer of its own.
func (m *Monitor) sweep(p *sim.Proc) {
	ids := m.sweepIDs[:0]
	m.sweepIDs = nil
	for id := range m.rrt {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		r := m.rrt[id]
		switch {
		case r.needsRecovery:
			// Fast path: the node told us it rebooted.
			r.needsRecovery = false
			m.Stats.add(statRecoverRebootRecoveries, 1)
			m.recoverNode(p, id, true)
		case !r.Dead && r.Beats > 0 && !m.NodeAlive(id):
			r.Dead = true
			m.Stats.add(statRecoverDeaths, 1)
			m.recoverNode(p, id, false)
		}
	}
	m.sweepIDs = ids
	m.out.redeliver(p)
	// Spare-pool upkeep (no-ops unless EnableSparePool ran): drop pool
	// entries whose donor died or rebooted, then replace consumed or
	// pruned spares asynchronously.
	m.pruneSpares()
	m.topUpSpares()
}

// reachable reports whether a parked letter to id is worth attempting.
// Rack-local nodes are gated on their heartbeat freshness; the one
// addressee outside the RRT, a sub-MN's root MN, is simply attempted,
// and an undeliverable letter just stays parked for the next pass.
func (m *Monitor) reachable(id fabric.NodeID) bool {
	if _, local := m.rrt[id]; !local {
		return true
	}
	return m.NodeAlive(id)
}

// sortedKeys returns a map's int keys ascending (deterministic sweeps).
func sortedKeys[T any](mp map[int]*T) []int {
	ids := make([]int, 0, len(mp))
	for id := range mp {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// recoverNode revokes and re-places every allocation involving the
// failed node. rebooted distinguishes a node that came back with fresh
// memory (nothing to return to it later) from one presumed dead (a
// false positive still owes hot-returns if it reappears).
func (m *Monitor) recoverNode(p *sim.Proc, id fabric.NodeID, rebooted bool) {
	ids := make([]int, 0, len(m.rat))
	for aid := range m.rat {
		ids = append(ids, aid)
	}
	sort.Ints(ids)
	for _, aid := range ids {
		a, ok := m.rat[aid]
		if !ok {
			continue // removed by an earlier step of this same sweep
		}
		switch {
		case a.Recipient == id:
			m.reclaimLease(p, a)
		case a.Donor == id:
			m.replace(p, a, replacement{rebooted: rebooted})
		}
	}
}

// incarnationOf reads a node's current reboot count from the RRT.
func (m *Monitor) incarnationOf(id fabric.NodeID) int64 {
	if r, ok := m.rrt[id]; ok {
		return r.Incarnation
	}
	return 0
}

// reclaimLease handles an allocation whose recipient died: the donor is
// healthy, so its backing returns to service.
func (m *Monitor) reclaimLease(p *sim.Proc, a *Allocation) {
	m.dropRow(a)
	m.emitLease(LeaseRevoked, a, a.Donor)
	m.releaseBacking(p, a)
	m.Stats.add(pick(a.Kind, statRecoverReclaimed, statRecoverDevicesReclaimed), 1)
}

// replacement is what a re-placement walk cannot derive from the row it
// moves. alive says the old donor still serves (migration) rather than
// having died (failover). That one fact decides what a lost relocate
// does (abort, or park for retry), how the old backing goes back (a
// hot-return now, or an orphan return owed), and which counters and
// event the walk reports. rebooted says a dead donor came back with
// fresh memory, so nothing is owed to it. accept, when set, is
// migration's candidate filter.
type replacement struct {
	alive, rebooted bool
	accept          func(cand *Registration) bool
}

// replace moves lease a to a new donor and reports whether it moved:
// walk the candidates, acquire the new backing (replacementBacking),
// retarget the recipient's window and replay what was in flight, commit
// the row, and release the old backing. Region contents are not copied
// — a dead donor has nothing left to copy from — so the model fits
// re-initializable uses (caches, scratch, cold tiers), which is what
// the serving scenarios lease remote memory for. A device row has no
// window to relocate: its client follows the lease event and replays
// its own work. With no candidate, failover evicts the lease and
// migration leaves it where it is.
//
// Every blocking step can race a free, and one rule keeps the backing
// accounted for: the path that deletes a RAT row releases its backing,
// old and new. A free that wins has released the old backing, so the
// walk only returns the backing it acquired. A row the walk holds is
// left to the GC by such a free (see Allocation.held).
func (m *Monitor) replace(p *sim.Proc, a *Allocation, how replacement) bool {
	t0 := m.EP.Eng.Now()
	old := *a
	oldInc := m.incarnationOf(old.Donor)
	// The walk reads a after its blocking calls, so a free meanwhile must
	// not hand the row back for reuse.
	a.held++
	defer func() { a.held-- }()
	cands := m.donorCandidates(a.Recipient)
	defer m.doneCandidates(cands)
	for _, cand := range cands {
		if cand.Node == old.Donor || !m.NodeAlive(cand.Node) || how.accept != nil && !how.accept(cand) {
			continue
		}
		base, prepaid, ok := m.replacementBacking(p, cand, a)
		if !ok {
			continue
		}
		if _, live := m.rat[a.ID]; !live {
			// The acquisition blocked (2 ms for a hot-remove, a round trip
			// for a spare attach) and a free or another recovery step
			// deleted the row meanwhile: the new region goes straight back,
			// or it leaks untracked on the new donor.
			m.undoReplacement(p, cand, a, base)
			m.Stats.add(either(how.alive, statMigrateRacedFree, statRecoverRacedFree), 1)
			return false
		}
		if a.Kind == Memory {
			rel := &relocateReq{
				AllocID: a.ID, RecipientBase: a.RecipientBase, Size: a.Size,
				OldDonor: old.Donor, NewDonor: cand.Node, NewDonorBase: base,
			}
			recipientInc := m.incarnationOf(a.Recipient)
			raw, ok := m.EP.CallTimeout(p, a.Recipient, kindRelocate, 64, rel, grantTimeout(m.EP.P))
			switch {
			case !ok && how.alive:
				// Delivery unknown, but the old placement still works: take
				// the new region back and let a later scan try again. (If the
				// relocate did land, the recipient aims at a region just torn
				// down; its next access faults the window dead, the same
				// contract as a revoke. That narrow race beats a double
				// commit.)
				m.undoReplacement(p, cand, a, base)
				m.Stats.add(statMigrateAborted, 1)
				return false
			case !ok:
				// Lost: the recipient may be mid-crash, or a link flap ate the
				// notice. It still aims at the dead donor, so commit and let
				// the sweep redeliver until delivery, a newer placement
				// supersedes it, or the recipient's own death reclaims the
				// row.
				m.out.park(m.relocate(a.Recipient, rel), recipientInc)
				m.Stats.add(statRecoverRelocateLost, 1)
			case !raw.(*relocateResp).OK:
				// The window was released while the relocate was in flight.
				// Unless the free has already deleted the row, this path
				// does, so it releases the old backing too.
				if _, live := m.rat[a.ID]; live {
					m.dropRow(a)
					m.releaseOld(p, &old, oldInc, how)
				}
				m.undoReplacement(p, cand, a, base)
				m.Stats.add(either(how.alive, statMigrateRacedFree, statRecoverRacedFree), 1)
				return false
			}
		}
		m.moveRow(a, cand.Node, base)
		if !prepaid {
			cand.debit(a.Kind, a.Size)
		}
		m.releaseOld(p, &old, oldInc, how)
		m.Stats.add(either(how.alive, statMigrateMoved, pick(a.Kind, statRecoverReplaced, statRecoverDevicesReplaced)), 1)
		if a.Kind == Memory {
			m.Stats.add(either(how.alive, statMigrateNS, statRecoverNS), int64(m.EP.Eng.Now().Sub(t0)))
		}
		m.emitLease(either(how.alive, LeaseMigrated, LeaseFailedOver), a, old.Donor)
		return true
	}
	switch _, live := m.rat[a.ID]; {
	case how.alive:
		m.Stats.add(statMigrateNoCandidate, 1)
	case !live:
		// The walk blocked and a free deleted the row meanwhile.
		m.Stats.add(statRecoverRacedFree, 1)
	default:
		// No survivor can back the lease: evict it, so the recipient does
		// not park forever on a region that no longer exists.
		m.evict(p, a, oldInc, how)
	}
	return false
}

// releaseOld gives back the backing row a held before its walk, as its
// donor's state allows. A live donor takes it straight back
// (releaseBacking). A dead one is owed an orphan hot-return for a memory
// region, parked against its incarnation inc when the walk began, so it
// is dropped if the donor rebooted and so wiped the region. A dead
// donor's device unit needs nothing: its next heartbeat re-advertises
// its units and re-debits the live rows.
func (m *Monitor) releaseOld(p *sim.Proc, a *Allocation, inc int64, how replacement) {
	switch {
	case how.alive:
		m.releaseBacking(p, a)
	case a.Kind == Memory && !how.rebooted:
		m.out.park(m.giveBack(a.Donor, m.region(a, a.DonorBase)), inc)
	}
}

// relocate is the letter redelivering a failover's lost relocate rel to
// recipient.
// It goes stale once the row is gone or has moved on from the placement
// rel names. A redelivery the recipient refuses found the window
// released while the letter was parked: unless a free deleted the row
// during the call, this path does, so it returns the replacement region.
func (m *Monitor) relocate(recipient fabric.NodeID, rel *relocateReq) letter {
	return letter{
		to: recipient, kind: kindRelocate, size: 64, req: rel,
		timeout: grantTimeout(m.EP.P), retried: statRecoverRelocateRetried,
		stale: func() bool {
			a, live := m.rat[rel.AllocID]
			return !live || a.Donor != rel.NewDonor || a.DonorBase != rel.NewDonorBase
		},
		answer: func(p *sim.Proc, resp any) {
			if resp.(*relocateResp).OK {
				return
			}
			if a, live := m.rat[rel.AllocID]; live {
				m.dropRow(a)
				m.releaseBacking(p, a)
			}
			m.Stats.add(statRecoverRacedFree, 1)
		},
	}
}

// evict tears row a down with nothing to replace it: failover that found
// no donor left, or preemption of a lease on a live donor (how.alive).
// By the row-ownership rule it deletes the row and releases the backing
// (releaseOld), then revokes a memory window so parked accesses unwedge
// and later ones fail fast (parked in the outbox when lost; device
// clients follow the event stream instead). Last it announces the event.
func (m *Monitor) evict(p *sim.Proc, a *Allocation, inc int64, how replacement) {
	m.dropRow(a)
	m.releaseOld(p, a, inc, how)
	if a.Kind == Memory && !m.out.send(p, letter{
		to: a.Recipient, kind: kindRevoke, size: 32,
		req:     &revokeReq{AllocID: a.ID, RecipientBase: a.RecipientBase, Size: a.Size},
		timeout: grantTimeout(m.EP.P), retried: statRecoverRevokeRetried,
	}) {
		m.Stats.add(either(how.alive, statPreemptRevokeLost, statRecoverRevokeLost), 1)
	}
	m.Stats.add(either(how.alive, pick(a.Kind, statPreemptMemory, statPreemptDevice),
		pick(a.Kind, statRecoverRevoked, statRecoverDevicesDropped)), 1)
	m.emitLease(either(how.alive, LeasePreempted, LeaseRevoked), a, a.Donor)
}

// undoReplacement returns a replacement region the walk will not commit
// to the donor it was just carved from. A device unit is only debited
// at commit, so it has nothing to undo.
func (m *Monitor) undoReplacement(p *sim.Proc, cand *Registration, a *Allocation, base uint64) {
	if a.Kind == Memory {
		m.sendBack(p, cand.Node, a, base)
	}
}
