package monitor

import (
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Spare-region pools: the MN keeps a small number of regions per donor
// already hot-removed from the donor's OS but not exported to anyone.
// Failover (and migration) then back a lease by attaching a parked
// spare — a single round trip — instead of paying the ~2 ms hot-plug
// that otherwise dominates recovery time. Pools are provisioned
// asynchronously off every grant and recovery sweep, so the carve cost
// never sits on a request's critical path; the donor's RRT idle account
// is debited at carve time, and entries are invalidated by donor death
// or reboot (a power cycle returns the carved memory to the donor's own
// OS, so the MN's entry is the only thing that needs cleanup).

// spareRegion is one parked region in a donor's pool. inc pins the
// donor incarnation that carved it: a reboot since then means the
// region no longer exists.
type spareRegion struct {
	base, size uint64
	inc        int64
}

// EnableSparePool turns on spare-region pools: perDonor regions of
// regionSize bytes are kept pre-plugged on every donor with idle memory
// to spare. Call before the scenario's failure window opens; pools fill
// asynchronously from the next grant or recovery sweep.
func (m *Monitor) EnableSparePool(regionSize uint64, perDonor int) {
	if regionSize == 0 || perDonor <= 0 {
		panic("monitor: EnableSparePool needs a positive region size and count")
	}
	m.sparePoolOn = true
	m.spareSize = regionSize
	m.sparePer = perDonor
	m.topUpSpares()
}

// SpareCount reports how many spares are currently parked on a donor
// (provisioned and not yet consumed; in-flight carves excluded).
func (m *Monitor) SpareCount(donor fabric.NodeID) int { return len(m.spares[donor]) }

// takeSpare pops a parked spare of exactly size bytes from donor's
// pool, dropping entries invalidated by a reboot along the way.
func (m *Monitor) takeSpare(donor fabric.NodeID, size uint64) (spareRegion, bool) {
	pool := m.spares[donor]
	cur := m.incarnationOf(donor)
	for i, sp := range pool {
		if sp.inc != cur {
			continue // stale; pruneSpares collects it
		}
		if sp.size == size {
			m.spares[donor] = append(pool[:i:i], pool[i+1:]...)
			return sp, true
		}
	}
	return spareRegion{}, false
}

// pruneSpares drops pool entries whose donor died or rebooted: the
// regions died with the donor's old life, so only the MN's bookkeeping
// (and nothing on the wire) needs to change.
func (m *Monitor) pruneSpares() {
	if !m.sparePoolOn {
		return
	}
	for donor, pool := range m.spares {
		cur := m.incarnationOf(donor)
		alive := m.NodeAlive(donor)
		kept := pool[:0]
		for _, sp := range pool {
			if alive && sp.inc == cur {
				kept = append(kept, sp)
			} else {
				m.Stats.Add("spare.pruned", 1)
			}
		}
		if len(kept) == 0 {
			delete(m.spares, donor)
		} else {
			m.spares[donor] = kept
		}
	}
}

// topUpSpares launches asynchronous carves until every eligible donor's
// pool (parked + in flight) is at the configured depth. It never
// blocks: callers sit on grant and recovery paths.
func (m *Monitor) topUpSpares() {
	if !m.sparePoolOn {
		return
	}
	ids := make([]fabric.NodeID, 0, len(m.rrt))
	for id := range m.rrt {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := m.rrt[id]
		if !m.NodeAlive(id) {
			continue
		}
		for len(m.spares[id])+m.sparePending[id] < m.sparePer && r.IdleBytes >= m.spareSize {
			// Debit the idle account up front so concurrent walks do not
			// over-commit the donor; the next heartbeat reconciles it with
			// the agent's ground truth either way.
			r.IdleBytes -= m.spareSize
			m.carveSpare(id)
		}
	}
}

// carveSpare asks one donor's agent — in a fresh proc, off every
// critical path — to hot-remove and park one spare region.
func (m *Monitor) carveSpare(donor fabric.NodeID) {
	m.sparePending[donor]++
	inc := m.incarnationOf(donor)
	m.EP.Eng.Go("mn-spare", func(p *sim.Proc) {
		defer func() { m.sparePending[donor]-- }()
		carve := &regionReq{Size: m.spareSize}
		if _, ok := m.EP.CallTimeout(p, donor, kindSpareCarve, 32, carve, grantTimeout(m.EP.P)); !ok {
			// Outcome unknown (donor died mid-carve). Unlike a grant there
			// is no recipient key to cancel by; if the donor comes back
			// un-rebooted its parked region is unreachable garbage until
			// the next reboot. Accept the leak bound (perDonor regions) and
			// let the heartbeat's idle refresh re-sync the account.
			m.Stats.Add("spare.carve_lost", 1)
			return
		}
		if !carve.OK {
			m.Stats.Add("spare.carve_declined", 1)
			return
		}
		if m.incarnationOf(donor) != inc {
			// The donor rebooted while the carve was in flight: the region
			// is gone (reboot wipes parked spares with everything else).
			m.Stats.Add("spare.carve_obsolete", 1)
			return
		}
		m.spares[donor] = append(m.spares[donor], spareRegion{base: carve.Base, size: m.spareSize, inc: inc})
		m.Stats.Add("spare.carved", 1)
	})
}

// replacementBacking acquires the backing for lease a on cand: one free
// unit for a device; for memory, the spare-attach fast path when a
// parked spare matches, the ordinary hot-remove otherwise. It owns the
// same lost-ACK bookkeeping as the grant path. prepaid tells the caller
// that cand's account was already debited (a spare's, at carve time).
func (m *Monitor) replacementBacking(p *sim.Proc, cand *Registration, a *Allocation) (base uint64, prepaid, ok bool) {
	if a.Kind != Memory {
		return 0, false, cand.free(a.Kind) >= a.Size
	}
	if sp, found := m.takeSpare(cand.Node, a.Size); found {
		att := m.region(a, sp.base)
		inc := m.incarnationOf(cand.Node)
		if _, ok := m.EP.CallTimeout(p, cand.Node, kindSpareAttach, 64, att, grantTimeout(m.EP.P)); !ok {
			// The donor died mid-attach and the export may or may not have
			// been installed, same as a lost hot-remove ACK.
			m.lostRegion(cand, att, inc, "recover.grant_timeouts")
			return 0, false, false
		}
		attached := att.OK
		m.regions.put(att)
		if attached {
			m.Stats.Add("recover.spare_attached", 1)
			m.topUpSpares() // replace the consumed spare asynchronously
			return sp.base, true, true
		}
		// The agent no longer holds the region (rebooted since the carve,
		// faster than our bookkeeping noticed): fall through to an
		// ordinary hot-remove on the same candidate.
		m.Stats.Add("recover.spare_stale", 1)
	} else if cand.IdleBytes < a.Size {
		// A dry idle account can back the lease only from a spare, whose
		// bytes were debited when it was carved.
		return 0, false, false
	}
	base, ok = m.hotRemove(p, cand, a.Recipient, a.RecipientBase, a.Size, true)
	return base, false, ok
}
