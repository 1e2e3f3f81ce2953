package monitor

import (
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
// client's next call surfaces the loss.

// pendingNotice parks one undelivered recovery notice (relocate or
// revoke) for a recipient, remembering the recipient's incarnation when
// it was queued: a rebooted recipient has a fresh RAMT and its old
// windows (and parked processes) died with it, so the notice is moot.
type pendingNotice[T any] struct {
	req          *T
	recipient    fabric.NodeID
	recipientInc int64
}

// StartRecovery launches the MN's failure-detection and lease-failover
// loop. The loop keeps the event queue non-empty forever, so programs
// that drive the engine with Run (rather than RunFor / step-until-done)
// must StopRecovery first.
func (m *Monitor) StartRecovery() {
	if m.recoveryOn {
		return
	}
	m.recoveryOn = true
	interval := m.SweepInterval
	if interval <= 0 {
		interval = m.HeartbeatTimeout / 2
		if interval <= 0 {
			interval = sim.Second
		}
	}
	m.EP.Eng.Go("mn-recovery", func(p *sim.Proc) {
		for m.recoveryOn {
			p.Sleep(interval)
			m.sweep(p)
		}
	})
}

// StopRecovery ends the recovery loop after the current sweep.
func (m *Monitor) StopRecovery() { m.recoveryOn = false }

// sweep runs one detection pass. Iteration is in node-id order so runs
// are deterministic regardless of map layout.
func (m *Monitor) sweep(p *sim.Proc) {
	ids := make([]fabric.NodeID, 0, len(m.rrt))
	for id := range m.rrt {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := m.rrt[id]
		switch {
		case r.needsRecovery:
			// Fast path: the node told us it rebooted.
			r.needsRecovery = false
			m.Stats.Add("recover.reboot_recoveries", 1)
			m.recoverNode(p, id, true)
			m.notifyNodeDown(p, id)
		case !r.Dead && r.Beats > 0 && !m.NodeAlive(id):
			r.Dead = true
			m.Stats.Add("recover.deaths", 1)
			m.recoverNode(p, id, false)
			m.notifyNodeDown(p, id)
		case !r.Dead && m.NodeAlive(id) && len(m.orphans[id]) > 0:
			// Hot-returns can be owed to a node that was never declared
			// dead (e.g. a free whose return was lost to a link flap);
			// settle them as soon as the node is reachable again.
			m.flushOrphans(p, id)
		}
	}
	m.retryPendingNotices(p)
	if m.HasUpstream {
		m.retryRackFrees(p)
	}
	// Spare-pool upkeep (no-ops unless EnableSparePool ran): drop pool
	// entries whose donor died or rebooted, then replace consumed or
	// pruned spares asynchronously.
	m.pruneSpares()
	m.topUpSpares()
}

// retryPendingNotices redelivers relocate/revoke notices whose first
// attempt was lost, in allocation-id order.
func (m *Monitor) retryPendingNotices(p *sim.Proc) {
	for _, id := range sortedKeys(m.pendingRelocates) {
		n := m.pendingRelocates[id]
		a, live := m.rat[id]
		if !live || a.Donor != n.req.NewDonor {
			// Freed, reclaimed, or superseded by a newer failover.
			delete(m.pendingRelocates, id)
			continue
		}
		if m.incarnationOf(n.recipient) != n.recipientInc {
			// The recipient rebooted: its windows are gone; its own
			// reboot recovery reclaims the row.
			delete(m.pendingRelocates, id)
			continue
		}
		if !m.recipientReachable(n.recipient) {
			continue // unreachable; keep for a later sweep
		}
		raw, ok := m.EP.CallTimeout(p, n.recipient, kindRelocate, 64, n.req, m.GrantTimeout)
		if !ok {
			m.Stats.Add("recover.relocate_retry_lost", 1)
			continue
		}
		delete(m.pendingRelocates, id)
		if !raw.(*relocateResp).OK {
			// The window was released while the notice was parked. Unless
			// a free deleted the row during the call, this path does, so it
			// returns the replacement region.
			if _, live := m.rat[id]; live {
				delete(m.rat, id)
				m.releaseBacking(p, a)
			}
			m.Stats.Add("recover.raced_free", 1)
			continue
		}
		m.Stats.Add("recover.relocate_retried", 1)
	}
	for _, id := range sortedKeys(m.pendingRevokes) {
		n := m.pendingRevokes[id]
		if m.incarnationOf(n.recipient) != n.recipientInc {
			delete(m.pendingRevokes, id)
			continue
		}
		if !m.recipientReachable(n.recipient) {
			continue
		}
		if _, ok := m.EP.CallTimeout(p, n.recipient, kindRevoke, 32, n.req, m.GrantTimeout); !ok {
			m.Stats.Add("recover.revoke_retry_lost", 1)
			continue
		}
		delete(m.pendingRevokes, id)
		m.Stats.Add("recover.revoke_retried", 1)
	}
}

// recipientReachable reports whether a recovery notice to recipient is
// worth attempting. Rack-local recipients are gated on their heartbeat
// freshness; recipients outside this sub-MN's rack (delegated leases)
// never appear in the RRT, so delivery is simply attempted — their own
// rack's sub-MN owns their liveness, and an undeliverable notice just
// stays parked for the next sweep.
func (m *Monitor) recipientReachable(recipient fabric.NodeID) bool {
	if _, local := m.rrt[recipient]; !local {
		return true
	}
	return m.NodeAlive(recipient)
}

// notifyNodeDown reports a locally-detected node death (or reboot) to
// the root MN so delegated leases the node held as a recipient are
// reclaimed across the delegation boundary. No-op on flat clusters.
func (m *Monitor) notifyNodeDown(p *sim.Proc, id fabric.NodeID) {
	if !m.HasUpstream {
		return
	}
	if _, ok := m.EP.CallTimeout(p, m.Upstream, kindNodeDown, 32,
		&nodeDownReq{Rack: m.Rack, Node: id}, m.GrantTimeout); !ok {
		m.Stats.Add("recover.nodedown_lost", 1)
	}
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

// queueOrphan parks a hot-return owed to a donor that could not be
// reached — unless the donor has rebooted since inc was read, in which
// case the region died with its old life and there is nothing to
// return. (Recovery's blocking RPCs take milliseconds; a donor can
// crash AND come back fresh inside one of them.)
func (m *Monitor) queueOrphan(donor fabric.NodeID, inc int64, ret *hotReturnReq) {
	if m.incarnationOf(donor) != inc {
		m.Stats.Add("recover.orphans_obsolete", 1)
		return
	}
	m.orphans[donor] = append(m.orphans[donor], ret)
}

// reclaimLease handles an allocation whose recipient died: the donor is
// healthy, so its backing returns to service.
func (m *Monitor) reclaimLease(p *sim.Proc, a *Allocation) {
	delete(m.rat, a.ID)
	m.emitLease(LeaseRevoked, a, a.Donor)
	m.releaseBacking(p, a)
	m.Stats.Add(pick(a.Kind, "recover.reclaimed", "recover.devices_reclaimed"), 1)
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
// walk only returns the backing it acquired.
func (m *Monitor) replace(p *sim.Proc, a *Allocation, how replacement) bool {
	t0 := m.EP.Eng.Now()
	old := *a
	oldInc := m.incarnationOf(old.Donor)
	for _, cand := range m.donorCandidates(a.Recipient, nil) {
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
			m.Stats.Add(either(how.alive, "migrate.raced_free", "recover.raced_free"), 1)
			return false
		}
		if a.Kind == Memory {
			rel := &relocateReq{
				AllocID: a.ID, RecipientBase: a.RecipientBase, Size: a.Size,
				OldDonor: old.Donor, NewDonor: cand.Node, NewDonorBase: base,
			}
			recipientInc := m.incarnationOf(a.Recipient)
			raw, ok := m.EP.CallTimeout(p, a.Recipient, kindRelocate, 64, rel, m.GrantTimeout)
			switch {
			case !ok && how.alive:
				// Delivery unknown, but the old placement still works: take
				// the new region back and let a later scan try again. (If the
				// relocate did land, the recipient aims at a region just torn
				// down; its next access faults the window dead, the same
				// contract as a revoke. That narrow race beats a double
				// commit.)
				m.undoReplacement(p, cand, a, base)
				m.Stats.Add("migrate.aborted", 1)
				return false
			case !ok:
				// Lost: the recipient may be mid-crash, or a link flap ate the
				// notice. It still aims at the dead donor, so commit and let
				// the sweep redeliver until delivery, a newer failover
				// supersedes it, or the recipient's own death reclaims the
				// row.
				m.pendingRelocates[a.ID] = &pendingNotice[relocateReq]{
					req: rel, recipient: a.Recipient, recipientInc: recipientInc,
				}
				m.Stats.Add("recover.relocate_lost", 1)
			case !raw.(*relocateResp).OK:
				// The window was released while the relocate was in flight.
				// Unless the free has already deleted the row, this path
				// does, so it releases the old backing too.
				if _, live := m.rat[a.ID]; live {
					delete(m.rat, a.ID)
					m.releaseOld(p, &old, oldInc, how)
				}
				m.undoReplacement(p, cand, a, base)
				m.Stats.Add(either(how.alive, "migrate.raced_free", "recover.raced_free"), 1)
				return false
			default:
				// Delivered: a notice parked by an older failover of this row
				// is superseded.
				delete(m.pendingRelocates, a.ID)
			}
		}
		a.Donor, a.DonorBase, a.At = cand.Node, base, m.EP.Eng.Now()
		if !prepaid {
			cand.debit(a.Kind, a.Size)
		}
		m.releaseOld(p, &old, oldInc, how)
		m.Stats.Add(either(how.alive, "migrate.moved", pick(a.Kind, "recover.replaced", "recover.devices_replaced")), 1)
		if a.Kind == Memory {
			m.Stats.Add(either(how.alive, "migrate.ns", "recover.ns"), int64(m.EP.Eng.Now().Sub(t0)))
		}
		m.emitLease(either(how.alive, LeaseMigrated, LeaseFailedOver), a, old.Donor)
		m.notifyDelegateMoved(p, a.Deleg, a.Donor, false)
		return true
	}
	switch _, live := m.rat[a.ID]; {
	case how.alive:
		m.Stats.Add("migrate.no_candidate", 1)
	case !live:
		// The walk blocked and a free deleted the row meanwhile.
		m.Stats.Add("recover.raced_free", 1)
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
// region, keyed to its incarnation inc when the walk began, unless it
// rebooted and so wiped the region. A dead donor's device unit needs
// nothing: its next heartbeat re-advertises its units and re-debits the
// live rows.
func (m *Monitor) releaseOld(p *sim.Proc, a *Allocation, inc int64, how replacement) {
	switch {
	case how.alive:
		m.releaseBacking(p, a)
	case a.Kind == Memory && !how.rebooted:
		m.queueOrphan(a.Donor, inc, a.hotReturn(a.DonorBase))
	}
}

// evict tears row a down with nothing to replace it: failover that found
// no donor left, or preemption of a lease on a live donor (how.alive).
// By the row-ownership rule it deletes the row and releases the backing
// (releaseOld), then revokes a memory window so parked accesses unwedge
// and later ones fail fast (parked for sweep retry when lost; device
// clients follow the event stream instead). Last it announces the event
// and tells the root.
func (m *Monitor) evict(p *sim.Proc, a *Allocation, inc int64, how replacement) {
	delete(m.rat, a.ID)
	m.releaseOld(p, a, inc, how)
	if a.Kind == Memory {
		rv := &revokeReq{AllocID: a.ID, RecipientBase: a.RecipientBase, Size: a.Size}
		recipientInc := m.incarnationOf(a.Recipient)
		if _, ok := m.EP.CallTimeout(p, a.Recipient, kindRevoke, 32, rv, m.GrantTimeout); !ok {
			m.pendingRevokes[a.ID] = &pendingNotice[revokeReq]{
				req: rv, recipient: a.Recipient, recipientInc: recipientInc,
			}
			m.Stats.Add(either(how.alive, "preempt.revoke_lost", "recover.revoke_lost"), 1)
		}
	}
	m.Stats.Add(either(how.alive, pick(a.Kind, "preempt.memory", "preempt.device"),
		pick(a.Kind, "recover.revoked", "recover.devices_dropped")), 1)
	m.emitLease(either(how.alive, LeasePreempted, LeaseRevoked), a, a.Donor)
	m.notifyDelegateMoved(p, a.Deleg, a.Donor, true)
}

// notifyDelegateMoved tells the root MN that a delegated lease's backing
// changed (new donor after a rack-local failover) or is gone (revoked),
// keeping the root's delegation table truthful. No-op for non-delegated
// rows and on flat clusters.
func (m *Monitor) notifyDelegateMoved(p *sim.Proc, deleg int, donor fabric.NodeID, gone bool) {
	if deleg == 0 || !m.HasUpstream {
		return
	}
	if _, ok := m.EP.CallTimeout(p, m.Upstream, kindDelegateMoved, 32,
		&delegateMovedReq{DelegID: deleg, Donor: donor, Gone: gone}, m.GrantTimeout); !ok {
		m.Stats.Add("recover.delegatemoved_lost", 1)
	}
}

// undoReplacement returns a replacement region the walk will not commit
// to the donor it was just carved from. A device unit is only debited
// at commit, so it has nothing to undo.
func (m *Monitor) undoReplacement(p *sim.Proc, cand *Registration, a *Allocation, base uint64) {
	if a.Kind != Memory {
		return
	}
	inc := m.incarnationOf(cand.Node)
	ret := a.hotReturn(base)
	if _, ok := m.EP.CallTimeout(p, cand.Node, kindHotReturn, 64, ret, m.GrantTimeout); !ok {
		m.queueOrphan(cand.Node, inc, ret)
	}
}

// flushOrphans settles hot-returns owed to a donor that reappeared
// without having rebooted: the MN declared it dead and moved its leases,
// but its regions are still hot-removed and exported.
func (m *Monitor) flushOrphans(p *sim.Proc, id fabric.NodeID) {
	rets := m.orphans[id]
	if len(rets) == 0 {
		return
	}
	delete(m.orphans, id)
	for _, ret := range rets {
		if _, ok := m.EP.CallTimeout(p, id, kindHotReturn, 64, ret, m.GrantTimeout); !ok {
			// Unreachable again; requeue for the next reappearance.
			m.orphans[id] = append(m.orphans[id], ret)
			continue
		}
		m.Stats.Add("recover.orphan_returns", 1)
	}
}
