package monitor

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/transport"
)

// This file is the sharded monitor plane that scales the §5.3 runtime
// past one rack. The paper's prototype runs a single Monitor Node for
// its 8-node mesh; a multi-rack fabric (fabric.RackSpine) instead runs
// one sub-MN per rack — an ordinary Monitor owning its rack's leases,
// heartbeats, and recovery sweep — plus a root MN that sees only
// rack-granularity state. Sub-MNs report aggregate idle memory and
// liveness on a slow "rackbeat"; when a rack is memory-starved (or a
// request carries ScopeRemoteRack), its sub-MN escalates to the root,
// which elects a donor rack and delegates the grant to that rack's
// sub-MN. Recovery composes across the delegation boundary:
//
//   - donor died         -> donor rack's own sweep re-places the lease
//     (rack-local)          locally and relocates the remote recipient
//     (failoverLease); the root learns via delegateMoved.
//   - recipient died     -> the recipient rack's sweep notifies the root
//     (cross-rack)          (nodeDown), which reclaims the delegated
//     region through the donor rack's sub-MN.
//   - sub-MN died        -> the root's own sweep notices the missed
//     (control plane)       rackbeats and re-delegates every lease the
//     dead rack was donating: a fresh grant in a surviving
//     rack, then the same relocate+replay path the
//     recipients' agents already implement (PR 3), so
//     in-flight accesses complete instead of being lost.

// RackStatus is one row of the root MN's rack registry — the
// rack-granularity analogue of a Registration.
type RackStatus struct {
	Rack      int
	Sub       fabric.NodeID
	IdleBytes uint64
	Live      int
	LastBeat  sim.Time
	Beats     int64
	Dead      bool
	// MaxUtil/HasUtil carry the rack's aggregated telemetry: the hottest
	// windowed link utilization any of its agents reported (absent until
	// telemetry-enabled agents beat).
	MaxUtil float64
	HasUtil bool
	// Devices is the rack's aggregate free device units per kind, as of
	// the last rackbeat (nil when the rack advertises none).
	Devices map[Resource]int
}

// free reports the rack's free amount of res as of its last rackbeat,
// less what the root has delegated since; debit takes amount off it.
func (rs *RackStatus) free(res Resource) uint64 { return freeOf(res, rs.IdleBytes, rs.Devices) }
func (rs *RackStatus) debit(res Resource, amount uint64) {
	moveFree(res, &rs.IdleBytes, rs.Devices, -int64(amount))
}

// Delegation is one row of the root MN's delegation table: a lease
// whose donor and recipient live in different racks. The donor rack's
// sub-MN holds the authoritative RAT row (SubAllocID); the root holds
// the rack-level indirection needed to free, reclaim, and re-delegate.
type Delegation struct {
	ID            int
	DonorRack     int
	RecipientRack int
	SubAllocID    int
	Donor         fabric.NodeID
	Recipient     fabric.NodeID
	RecipientBase uint64
	Size          uint64
	At            sim.Time
	Latency       bool          // latency-sensitive class, preserved across re-delegation
	Trace         uint64        // lease trace id, preserved across re-delegation
	Tenant        uint64        // owning tenant, preserved across re-delegation
	Class         tenancy.Class // tenant priority class, preserved across re-delegation
	// Kind is the delegated resource. Device delegations have Size 1
	// (one unit) and carry the recipient sub-MN's pre-minted alloc id in
	// RecipientBase.
	Kind Resource
}

// Root is the root Monitor Node of a sharded plane. It brokers nothing
// node-granular: its registry has one row per rack and its allocation
// table one row per cross-rack delegation, so its load scales with
// racks and cross-rack traffic, not with nodes.
type Root struct {
	EP *transport.Endpoint

	// RackBeatTimeout declares a sub-MN (and with it the rack's control
	// plane) dead when its rackbeats stop.
	RackBeatTimeout sim.Dur
	// SweepInterval is the root recovery loop's scan period; it defaults
	// to half the rackbeat timeout.
	SweepInterval sim.Dur
	// GrantTimeout bounds one RPC into a sub-MN or an agent. A delegate
	// call wraps a whole donor walk on the sub, so delegation calls use a
	// small multiple of it.
	GrantTimeout sim.Dur

	racks       map[int]*RackStatus
	dels        map[int]*Delegation
	nextDelegID int
	sweepOn     bool

	// tombs parks, per declared-dead rack, the sub-MN RAT row ids whose
	// leases were re-delegated (or revoked) out from under it. A rack
	// whose death was a false positive comes back with those rows — and
	// their carved-out regions — intact; flushing the tombstones as
	// delegate-frees on reappearance reconciles the stale sub-MN with
	// the re-delegated truth and un-leaks the regions.
	tombs map[int][]int
	// cancels parks, per rack, delegation ids whose delegate call timed
	// out there: the sub may have granted and lost the response, leaving
	// a row (and region) nobody tracks. The sweep delivers key-resolved
	// cancellations when the rack is reachable.
	cancels map[int][]int
	// cancelled records borrow cancellations that arrived while their
	// election was still in flight (possible if a sub's patience is
	// configured under the root's worst case): the election's success
	// path consults it and unwinds instead of recording a delegation the
	// canceller will never free.
	cancelled map[windowKey]bool

	// pendingRel / pendingRev park undelivered relocate/revoke notices
	// from re-delegations, retried each sweep — the same
	// never-strand-a-recipient contract the sub-MN sweeps keep.
	pendingRel map[int]*relocateReq
	pendingRev map[int]*parkedRevoke

	// Stats counts root activity (borrows, delegations, re-delegations,
	// reclaims).
	Stats sim.Scoreboard

	// observers receive lease-lifecycle events for cross-rack
	// re-delegations and reclaims (see events.go).
	observers leaseObservers
}

// NewRoot starts a root MN on the given endpoint (typically a spine
// switch's).
func NewRoot(ep *transport.Endpoint) *Root {
	rt := &Root{
		EP:              ep,
		RackBeatTimeout: 3 * sim.Second,
		GrantTimeout:    10*ep.P.HotplugOp + sim.Millisecond,
		racks:           make(map[int]*RackStatus),
		dels:            make(map[int]*Delegation),
		nextDelegID:     1,
		pendingRel:      make(map[int]*relocateReq),
		pendingRev:      make(map[int]*parkedRevoke),
		tombs:           make(map[int][]int),
		cancels:         make(map[int][]int),
		cancelled:       make(map[windowKey]bool),
	}
	ep.HandleCall(kindRackBeat, rt.onRackBeat)
	ep.HandleCall(kindRackBorrow, rt.onRackBorrow)
	ep.HandleCall(kindRackFree, rt.onRackFree)
	ep.HandleCall(kindNodeDown, rt.onNodeDown)
	ep.HandleCall(kindDelegateMoved, rt.onDelegateMoved)
	ep.HandleCall(kindBorrowCancel, rt.onBorrowCancel)
	return rt
}

// Node reports the root MN's node id.
func (rt *Root) Node() fabric.NodeID { return rt.EP.ID }

// RackStatusOf reports a copy of a rack's registry row.
func (rt *Root) RackStatusOf(rack int) (RackStatus, bool) {
	rs, ok := rt.racks[rack]
	if !ok {
		return RackStatus{}, false
	}
	return *rs, true
}

// RackAlive reports whether rackbeats from rack are recent.
func (rt *Root) RackAlive(rack int) bool {
	rs, ok := rt.racks[rack]
	if !ok {
		return false
	}
	return !rs.Dead && rs.Beats > 0 && rt.EP.Eng.Now().Sub(rs.LastBeat) <= rt.RackBeatTimeout
}

// Delegations returns the live delegation rows, ordered by id.
func (rt *Root) Delegations() []Delegation {
	ids := make([]int, 0, len(rt.dels))
	for id := range rt.dels {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]Delegation, 0, len(ids))
	for _, id := range ids {
		out = append(out, *rt.dels[id])
	}
	return out
}

// onRackBeat folds a sub-MN's rack-level report into the registry.
func (rt *Root) onRackBeat(_ *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	b := req.(*rackBeat)
	rs, ok := rt.racks[b.Rack]
	if !ok {
		rs = &RackStatus{Rack: b.Rack}
		rt.racks[b.Rack] = rs
	}
	if rs.Dead {
		// The rack's control plane reappeared. Anything it was donating
		// was re-delegated (or revoked) while it was gone; if the death
		// was a false positive the sub still holds those RAT rows and
		// their regions, so flush the parked tombstones as
		// delegate-frees to reconcile it. A genuinely rebooted sub
		// answers them as stale no-ops.
		rs.Dead = false
		rt.Stats.Add("root.rack_reappeared", 1)
		rt.flushTombstones(b.Rack, b.Sub)
	}
	rs.Sub = b.Sub
	rs.IdleBytes = b.IdleBytes
	rs.Live = b.Live
	rs.Devices = b.Devices
	rs.MaxUtil, rs.HasUtil = b.MaxUtil, b.HasUtil
	rs.LastBeat = rt.EP.Eng.Now()
	rs.Beats++
	rt.Stats.Add("root.rackbeats", 1)
	return &ack{}, 8
}

// donorRacks orders candidate donor racks for amount of res, requested
// from exclude: live racks with that much free. With rack telemetry the
// coolest rack wins first (a saturated rack fabric makes a poor donor
// no matter how much idles behind it); without it — including every
// telemetry-off configuration, byte-identically — the rack with the
// most free wins. Rack id breaks ties, keeping elections deterministic.
func (rt *Root) donorRacks(exclude int, res Resource, amount uint64) []*RackStatus {
	var cands []*RackStatus
	for _, rs := range rt.racks {
		if rs.Rack == exclude || !rt.RackAlive(rs.Rack) || rs.free(res) < amount {
			continue
		}
		cands = append(cands, rs)
	}
	util := func(rs *RackStatus) float64 {
		if rs.HasUtil {
			return rs.MaxUtil
		}
		return 0
	}
	sort.Slice(cands, func(i, j int) bool {
		if ui, uj := util(cands[i]), util(cands[j]); ui != uj {
			return ui < uj
		}
		if fi, fj := cands[i].free(res), cands[j].free(res); fi != fj {
			return fi > fj
		}
		return cands[i].Rack < cands[j].Rack
	})
	return cands
}

// delegateTimeout bounds one delegate call: the sub's donor walk can
// itself burn a few GrantTimeouts on dying candidates.
func (rt *Root) delegateTimeout() sim.Dur { return 3 * rt.GrantTimeout }

// rootBorrowCandidates caps how many racks one borrow election may try.
// The cap keeps the root's worst case (rootBorrowCandidates delegate
// calls) strictly inside the requesting sub-MN's borrowTimeout, so a
// sub that gives up can trust that the root's walk has finished — the
// property the escalation cancellation (cancelBorrow) relies on.
const rootBorrowCandidates = 2

// delegateTo asks one rack's sub-MN to back a delegation, keeping the
// registry's free account of the resource: a declining or unreachable
// rack is marked drained of it. Shared by the borrow election and
// rack-death re-delegation so decline/timeout handling cannot drift
// between them.
func (rt *Root) delegateTo(p *sim.Proc, rs *RackStatus, req *delegateReq) (*delegateResp, bool) {
	raw, ok := rt.EP.CallTimeout(p, rs.Sub, kindDelegate, 64, req, rt.delegateTimeout())
	if !ok {
		// The sub may have granted and lost the response; park a
		// key-resolved cancellation so the orphaned row (and region)
		// cannot leak, and so the next candidate's row under the same
		// delegation id never coexists with this one.
		rt.Stats.Add("root.delegate_timeouts", 1)
		rt.cancels[rs.Rack] = append(rt.cancels[rs.Rack], req.DelegID)
		rs.debit(req.Res, rs.free(req.Res))
		return nil, false
	}
	resp := raw.(*delegateResp)
	if !resp.OK {
		rt.Stats.Add("root.delegate_declines", 1)
		rs.debit(req.Res, rs.free(req.Res))
		return nil, false
	}
	rs.debit(req.Res, req.Size)
	return resp, true
}

// onRackBorrow services a sub-MN's escalation: elect a donor rack and
// delegate the grant to its sub-MN. Like the node-level walk, rack
// registry rows can be stale, so a declining rack is marked drained and
// the next candidate tried, up to the rootBorrowCandidates bound.
func (rt *Root) onRackBorrow(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	r := req.(*rackBorrowReq)
	rt.Stats.Add("root.borrows", 1)
	key := windowKey{recipient: r.Recipient, base: r.WindowBase}
	id := rt.nextDelegID
	rt.nextDelegID++
	for tried, rs := range rt.donorRacks(r.Rack, r.Res, r.Size) {
		if tried >= rootBorrowCandidates {
			break
		}
		resp, ok := rt.delegateTo(p, rs, &delegateReq{
			DelegID: id, Recipient: r.Recipient, Res: r.Res, Size: r.Size, WindowBase: r.WindowBase,
			Policy: r.Policy, Latency: r.Latency, Trace: r.Trace,
			Tenant: r.Tenant, Class: r.Class,
		})
		if !ok {
			continue
		}
		d := &Delegation{
			ID: id, DonorRack: rs.Rack, RecipientRack: r.Rack,
			SubAllocID: resp.AllocID, Donor: resp.Donor,
			Recipient: r.Recipient, RecipientBase: r.WindowBase,
			Size: r.Size, At: rt.EP.Eng.Now(), Latency: r.Latency, Trace: r.Trace,
			Tenant: r.Tenant, Class: r.Class, Kind: r.Res,
		}
		if rt.cancelled[key] {
			// The requesting sub gave up and cancelled while this
			// election was still in flight (delegateTo blocks for
			// milliseconds): nobody will ever free this grant, so unwind
			// it instead of recording it.
			delete(rt.cancelled, key)
			rt.freeBacking(p, d)
			rt.Stats.Add("root.borrows_cancelled", 1)
			return &rackBorrowResp{OK: false, Err: "borrow cancelled by requester"}, 64
		}
		rt.dels[id] = d
		rt.Stats.Add("root.delegated", 1)
		return &rackBorrowResp{OK: true, DelegID: id, Donor: resp.Donor, DonorBase: resp.DonorBase}, 64
	}
	delete(rt.cancelled, key) // a failed election has nothing to cancel
	rt.Stats.Add("root.borrow_failures", 1)
	return &rackBorrowResp{OK: false, Err: fmt.Sprintf(pick(r.Res,
		"no rack with %[1]d idle bytes", "no rack with a free %[2]s"), r.Size, r.Res)}, 64
}

// onBorrowCancel services a sub-MN whose escalation timed out: if the
// borrow did complete at the root (the response was lost, or the
// election outlasted the sub's patience), the orphaned delegation —
// which no sub-MN holds a mapping for — is torn down. The window base
// identifies it: hot-plug windows are never reused per recipient.
func (rt *Root) onBorrowCancel(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	c := req.(*borrowCancelReq)
	matched := false
	for _, id := range sortedKeys(rt.dels) {
		// Device delegations key on a pre-minted alloc id, memory ones on
		// a window base; never let one resource's cancel tear another down.
		d, ok := rt.dels[id]
		if !ok || d.Recipient != c.Recipient || d.RecipientBase != c.RecipientBase || d.Kind != c.Res {
			continue
		}
		delete(rt.dels, id)
		delete(rt.pendingRel, id)
		delete(rt.pendingRev, id)
		rt.freeBacking(p, d)
		rt.Stats.Add("root.borrows_cancelled", 1)
		matched = true
	}
	if !matched {
		// The election may still be in flight (a sub whose patience was
		// configured under the root's worst case): leave a mark so its
		// success path unwinds instead of recording an unfreeable grant.
		rt.cancelled[windowKey{recipient: c.Recipient, base: c.RecipientBase}] = true
	}
	return &ack{}, 8
}

// onRackFree releases a delegated lease: tear down the donor-rack
// backing through its sub-MN and drop the delegation row.
func (rt *Root) onRackFree(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	f := req.(*rackFreeReq)
	d, ok := rt.dels[f.DelegID]
	if !ok {
		return &ack{}, 8
	}
	delete(rt.dels, f.DelegID)
	delete(rt.pendingRel, f.DelegID)
	delete(rt.pendingRev, f.DelegID)
	rt.freeBacking(p, d)
	rt.Stats.Add("root.freed", 1)
	return &ack{}, 8
}

// freeBacking asks a delegation's donor rack to tear down its backing
// region. With the donor rack's control plane dead there is no one to
// ask: the region stays carved out until that rack's sub-MN returns —
// the documented leak window of a rack-level control-plane outage.
func (rt *Root) freeBacking(p *sim.Proc, d *Delegation) {
	rs, ok := rt.racks[d.DonorRack]
	if !ok || !rt.RackAlive(d.DonorRack) {
		rt.Stats.Add("root.free_leaked", 1)
		return
	}
	if _, ok := rt.EP.CallTimeout(p, rs.Sub, kindDelegateFree, 32,
		&delegateFreeReq{AllocID: d.SubAllocID}, rt.delegateTimeout()); !ok {
		rt.Stats.Add("root.free_leaked", 1)
	}
}

// onNodeDown services a sub-MN's death notice: delegated leases the dead
// node held as a recipient are reclaimed to their donor racks (the
// cross-rack mirror of reclaimLease).
func (rt *Root) onNodeDown(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	n := req.(*nodeDownReq)
	for _, id := range sortedKeys(rt.dels) {
		// Re-check liveness on every iteration: freeBacking blocks, and a
		// concurrent handler (an in-flight free, a delegateMoved) can
		// delete a later id meanwhile.
		d, ok := rt.dels[id]
		if !ok || d.Recipient != n.Node {
			continue
		}
		delete(rt.dels, id)
		delete(rt.pendingRel, id)
		delete(rt.pendingRev, id)
		rt.freeBacking(p, d)
		rt.Stats.Add("root.reclaimed", 1)
		rt.emitDelegation(LeaseRevoked, d, d.Donor)
	}
	return &ack{}, 8
}

// onDelegateMoved keeps the delegation table truthful when a donor
// rack's own recovery sweep re-placed (or revoked) a delegated lease.
func (rt *Root) onDelegateMoved(_ *sim.Proc, from fabric.NodeID, req any) (any, int) {
	mv := req.(*delegateMovedReq)
	d, ok := rt.dels[mv.DelegID]
	if !ok {
		return &ack{}, 8
	}
	// Only the current donor rack's sub-MN speaks for the delegation: a
	// stale row elsewhere (a lost delegate response awaiting its parked
	// cancellation, or a reappeared rack awaiting tombstones) must not
	// overwrite the re-delegated truth.
	if rs, ok := rt.racks[d.DonorRack]; !ok || rs.Sub != from {
		rt.Stats.Add("root.delegate_moved_stale", 1)
		return &ack{}, 8
	}
	if mv.Gone {
		delete(rt.dels, mv.DelegID)
		delete(rt.pendingRel, mv.DelegID)
		delete(rt.pendingRev, mv.DelegID)
		rt.Stats.Add("root.delegate_revoked", 1)
		return &ack{}, 8
	}
	d.Donor = mv.Donor
	d.At = rt.EP.Eng.Now()
	rt.Stats.Add("root.delegate_moved", 1)
	return &ack{}, 8
}

// flushTombstones asks a reappeared rack's sub-MN to tear down the RAT
// rows whose leases moved elsewhere while it was presumed dead. Runs in
// its own process so the rackbeat handler never blocks on it;
// undeliverable tombstones re-park for the rack's next reappearance.
func (rt *Root) flushTombstones(rack int, sub fabric.NodeID) {
	ids := rt.tombs[rack]
	if len(ids) == 0 {
		return
	}
	delete(rt.tombs, rack)
	rt.EP.Eng.Go(fmt.Sprintf("root-tombs-rack%d", rack), func(p *sim.Proc) {
		for _, id := range ids {
			if _, ok := rt.EP.CallTimeout(p, sub, kindDelegateFree, 32,
				&delegateFreeReq{AllocID: id}, rt.delegateTimeout()); !ok {
				rt.tombs[rack] = append(rt.tombs[rack], id)
				continue
			}
			rt.Stats.Add("root.tombstones_flushed", 1)
		}
	})
}

// StartRecovery launches the root's rack-level failure-detection loop.
// Like Monitor.StartRecovery, the loop keeps the event queue alive
// forever; drive such engines with RunFor or step-until-done.
func (rt *Root) StartRecovery() {
	if rt.sweepOn {
		return
	}
	rt.sweepOn = true
	interval := rt.SweepInterval
	if interval <= 0 {
		interval = rt.RackBeatTimeout / 2
		if interval <= 0 {
			interval = sim.Second
		}
	}
	rt.EP.Eng.Go("root-mn-recovery", func(p *sim.Proc) {
		for rt.sweepOn {
			p.Sleep(interval)
			rt.sweep(p)
		}
	})
}

// StopRecovery ends the root loop after the current sweep.
func (rt *Root) StopRecovery() { rt.sweepOn = false }

// sweep runs one rack-level detection pass, in rack order.
func (rt *Root) sweep(p *sim.Proc) {
	racks := make([]int, 0, len(rt.racks))
	for r := range rt.racks {
		racks = append(racks, r)
	}
	sort.Ints(racks)
	for _, r := range racks {
		rs := rt.racks[r]
		if !rs.Dead && rs.Beats > 0 && rt.EP.Eng.Now().Sub(rs.LastBeat) > rt.RackBeatTimeout {
			rs.Dead = true
			rt.Stats.Add("root.rack_deaths", 1)
			rt.redelegateRack(p, r)
		}
	}
	rt.retryPending(p)
	rt.flushCancels(p)
}

// flushCancels delivers parked delegate cancellations to racks that are
// reachable again, in rack then queue order; undeliverable ones stay
// parked for the next sweep.
func (rt *Root) flushCancels(p *sim.Proc) {
	racks := make([]int, 0, len(rt.cancels))
	for r := range rt.cancels {
		racks = append(racks, r)
	}
	sort.Ints(racks)
	for _, r := range racks {
		if !rt.RackAlive(r) {
			continue
		}
		sub := rt.racks[r].Sub
		ids := rt.cancels[r]
		delete(rt.cancels, r)
		for i, id := range ids {
			// A later re-delegation can legitimately land this delegation
			// back in the rack whose earlier attempt timed out; the parked
			// cancel is then aimed at the live backing and must be dropped.
			if d, live := rt.dels[id]; live && d.DonorRack == r {
				rt.Stats.Add("root.cancels_obsolete", 1)
				continue
			}
			if _, ok := rt.EP.CallTimeout(p, sub, kindDelegateCancel, 32,
				&delegateCancelReq{DelegID: id}, rt.delegateTimeout()); !ok {
				rt.cancels[r] = append(rt.cancels[r], ids[i:]...)
				break
			}
			rt.Stats.Add("root.delegates_cancelled", 1)
		}
	}
}

// redelegateRack moves every lease the dead rack was donating onto a
// surviving rack: a fresh delegated grant there, then the recipients'
// agents retarget their windows and replay what was in flight — the
// same relocate machinery rack-local failover uses, driven one level
// up. Leases the dead rack's nodes hold as recipients are left to that
// rack's own sub-MN (it owns those rows and may just be partitioned).
func (rt *Root) redelegateRack(p *sim.Proc, dead int) {
	for _, id := range sortedKeys(rt.dels) {
		d, ok := rt.dels[id]
		if !ok || d.DonorRack != dead {
			continue
		}
		// Whatever happens next, the dead rack's backing region stays
		// carved out of its donor; leave a tombstone so a reappearing
		// (falsely-dead) sub-MN drops the stale row and hot-returns the
		// region instead of diverging from the re-delegated truth.
		rt.tombs[dead] = append(rt.tombs[dead], d.SubAllocID)
		oldDonor := d.Donor
		moved := false
		for _, rs := range rt.donorRacks(dead, d.Kind, d.Size) {
			resp, ok := rt.delegateTo(p, rs, &delegateReq{
				DelegID: d.ID, Recipient: d.Recipient, Res: d.Kind, Size: d.Size, WindowBase: d.RecipientBase,
				Latency: d.Latency, Trace: d.Trace, Tenant: d.Tenant, Class: d.Class,
			})
			if !ok {
				continue
			}
			d.DonorRack, d.Donor, d.SubAllocID = rs.Rack, resp.Donor, resp.AllocID
			d.At = rt.EP.Eng.Now()
			if d.Kind == Memory {
				// Device leases carry no hot-plugged window: recipients
				// learn the new donor from the lease-lifecycle event and
				// replay in flight work themselves, so only memory leases
				// need the agent-level relocate.
				rel := &relocateReq{
					AllocID: d.SubAllocID, RecipientBase: d.RecipientBase, Size: d.Size,
					OldDonor: oldDonor, NewDonor: resp.Donor, NewDonorBase: resp.DonorBase,
				}
				rt.deliverRelocate(p, d, rel)
			}
			rt.Stats.Add("root.redelegated", 1)
			rt.emitDelegation(LeaseFailedOver, d, oldDonor)
			moved = true
			break
		}
		if !moved {
			// No surviving rack can back the window: revoke so the
			// recipient's parked accesses fail fast instead of waiting on
			// a region that no longer exists.
			delete(rt.dels, d.ID)
			if d.Kind == Memory {
				rv := &revokeReq{AllocID: d.SubAllocID, RecipientBase: d.RecipientBase, Size: d.Size}
				if _, ok := rt.EP.CallTimeout(p, d.Recipient, kindRevoke, 32, rv, rt.GrantTimeout); !ok {
					rt.pendingRev[d.ID] = &parkedRevoke{req: rv, to: d.Recipient}
					rt.Stats.Add("root.revoke_lost", 1)
				}
			}
			rt.Stats.Add("root.revoked", 1)
			rt.emitDelegation(LeaseRevoked, d, oldDonor)
		}
	}
}

// deliverRelocate sends a re-delegation's relocate notice to the
// recipient's agent, parking it for sweep retry when delivery fails and
// unwinding the fresh grant when the window raced a concurrent free.
func (rt *Root) deliverRelocate(p *sim.Proc, d *Delegation, rel *relocateReq) {
	raw, ok := rt.EP.CallTimeout(p, d.Recipient, kindRelocate, 64, rel, rt.GrantTimeout)
	switch {
	case !ok:
		rt.pendingRel[d.ID] = rel
		rt.Stats.Add("root.relocate_lost", 1)
	case !raw.(*relocateResp).OK:
		// The window was released while the notice was in flight: drop
		// the delegation and take the replacement backing down.
		delete(rt.dels, d.ID)
		rt.freeBacking(p, d)
		rt.Stats.Add("root.raced_free", 1)
	default:
		delete(rt.pendingRel, d.ID)
	}
}

// retryPending redelivers relocate/revoke notices whose first attempt
// was lost, in delegation-id order.
func (rt *Root) retryPending(p *sim.Proc) {
	for _, id := range sortedKeys(rt.pendingRel) {
		rel := rt.pendingRel[id]
		d, live := rt.dels[id]
		if !live || d.Donor != rel.NewDonor {
			delete(rt.pendingRel, id) // freed or superseded meanwhile
			continue
		}
		delete(rt.pendingRel, id)
		rt.deliverRelocate(p, d, rel)
	}
	for _, id := range sortedKeys(rt.pendingRev) {
		pr := rt.pendingRev[id]
		if _, ok := rt.EP.CallTimeout(p, pr.to, kindRevoke, 32, pr.req, rt.GrantTimeout); !ok {
			continue
		}
		delete(rt.pendingRev, id)
	}
}

// parkedRevoke is an undelivered revoke notice plus its addressee (the
// delegation row that knew the recipient is gone by the time a revoke
// parks).
type parkedRevoke struct {
	req *revokeReq
	to  fabric.NodeID
}

// --- sub-MN side -----------------------------------------------------

// StartRackBeat turns this Monitor into a sub-MN of the sharded plane:
// it begins reporting rack-level state (aggregate idle bytes, live node
// count) to the root MN at root, and enables escalation of requests its
// rack cannot serve. The first beat is staggered past every agent's
// first heartbeat so the initial report carries real idle figures.
func (m *Monitor) StartRackBeat(root fabric.NodeID, rack int, interval sim.Dur) {
	m.Upstream, m.HasUpstream, m.Rack = root, true, rack
	if m.rackBeatOn {
		return
	}
	m.rackBeatOn = true
	if interval <= 0 {
		interval = sim.Second
	}
	m.EP.Eng.Go(fmt.Sprintf("submn@%v-rackbeat", m.EP.ID), func(p *sim.Proc) {
		p.Sleep(sim.Dur(m.Topo.N+2+rack) * sim.Millisecond)
		for m.rackBeatOn {
			m.sendRackBeat(p, interval)
			// Parked upstream teardowns (lost frees/cancels) retry on the
			// beat, not only in the recovery sweep: the beat loop is the
			// one loop every sub-MN always runs, so a cluster without
			// recovery enabled still cannot leak a delegation forever.
			m.retryRackFrees(p)
			p.Sleep(interval)
		}
	})
}

// StopRackBeat ends the rack-level report loop after the current period
// (escalation stays enabled).
func (m *Monitor) StopRackBeat() { m.rackBeatOn = false }

// sendRackBeat sends one rack-level report to the root MN, aggregating
// the rack's telemetry (hottest reported link window) one level up so
// the root scales with racks, not links.
func (m *Monitor) sendRackBeat(p *sim.Proc, interval sim.Dur) {
	var idle uint64
	live := 0
	var devs map[Resource]int
	for _, r := range m.rrt {
		if !r.Dead && m.NodeAlive(r.Node) {
			idle += r.IdleBytes
			live++
			for k, v := range r.Devices {
				if v <= 0 {
					continue
				}
				if devs == nil {
					devs = make(map[Resource]int)
				}
				devs[k] += v
			}
		}
	}
	b := &rackBeat{Rack: m.Rack, Sub: m.EP.ID, IdleBytes: idle, Live: live, Devices: devs}
	for _, s := range m.tst {
		if s.HasUtil {
			b.HasUtil = true
			if s.Util > b.MaxUtil {
				b.MaxUtil = s.Util
			}
		}
	}
	if _, ok := m.EP.CallTimeout(p, m.Upstream, kindRackBeat, 64, b, interval); !ok {
		m.Stats.Add("rackbeats.lost", 1)
	}
	m.Stats.Add("rackbeats", 1)
}

// borrowTimeout bounds one escalation round trip. It must exceed the
// root's bounded worst case — rootBorrowCandidates delegate calls of
// 3×GrantTimeout each — so that when escalate gives up, the root's
// election has provably finished and a cancellation is authoritative.
func (m *Monitor) borrowTimeout() sim.Dur { return 8 * m.GrantTimeout }

// escalate forwards a request the rack cannot serve to the root MN and,
// on success, records the recipient-facing alloc-id → delegation-id
// mapping so the lease frees through the same Free call path. size is
// the admitted amount — r's unless the local admission gate degraded
// the grant before the rack turned out to be starved.
//
// The borrow's cancellation key is memory's window. A device has no
// window, so the sub mints the recipient-facing alloc id up front and
// rides it in WindowBase as the key; memory mints its id on success.
func (m *Monitor) escalate(p *sim.Proc, from fabric.NodeID, r *AllocReq, size uint64) *AllocResp {
	id, key := -1, r.WindowBase
	if r.Res != Memory {
		id = m.nextAllocID
		m.nextAllocID++
		key = uint64(id)
	}
	req := &rackBorrowReq{
		Rack: m.Rack, Recipient: from, Res: r.Res, Size: size, WindowBase: key,
		Policy: r.Policy, Latency: r.Latency, Trace: r.Trace, Tenant: r.Tenant, Class: r.Class,
	}
	raw, ok := m.EP.CallTimeout(p, m.Upstream, kindRackBorrow, 64, req, m.borrowTimeout())
	if !ok {
		// The response is lost (or the root outran our patience, which
		// the rootBorrowCandidates bound rules out): the borrow may have
		// completed at the root, where nobody else holds a mapping for
		// it. Send a cancellation; the root tears down any matching
		// delegation. An undeliverable cancel parks for sweep retry — a
		// flap must not leak a delegation forever.
		m.Stats.Add("alloc.upstream_timeouts", 1)
		cancel := &borrowCancelReq{Recipient: from, RecipientBase: key, Res: r.Res}
		if _, ok := m.EP.CallTimeout(p, m.Upstream, kindBorrowCancel, 32, cancel, m.GrantTimeout); !ok {
			m.pendingCancels[windowKey{recipient: from, base: key}] = cancel
			m.Stats.Add("alloc.cancel_lost", 1)
		}
		return nil
	}
	resp := raw.(*rackBorrowResp)
	if !resp.OK {
		m.Stats.Add("alloc.upstream_declines", 1)
		return nil
	}
	if id < 0 {
		id = m.nextAllocID
		m.nextAllocID++
	}
	m.delegated[id] = delegatedLease{deleg: resp.DelegID, recipient: from}
	m.Stats.Add("alloc.delegated", 1)
	return r.granted(id, resp.Donor, resp.DonorBase, size)
}

// delegatedLease is a sub-MN's record of one lease another rack backs
// on its recipient's behalf.
type delegatedLease struct {
	deleg     int
	recipient fabric.NodeID
}

// retryRackFrees redelivers upstream releases and escalation
// cancellations whose first attempt was lost, in deterministic order
// (called from the recovery sweep).
func (m *Monitor) retryRackFrees(p *sim.Proc) {
	for _, id := range sortedKeys(m.pendingRackFrees) {
		fr := m.pendingRackFrees[id]
		if _, ok := m.EP.CallTimeout(p, m.Upstream, kindRackFree, 32, fr, 3*m.GrantTimeout); !ok {
			continue
		}
		delete(m.pendingRackFrees, id)
		m.Stats.Add("free.upstream_retried", 1)
	}
	keys := make([]windowKey, 0, len(m.pendingCancels))
	for k := range m.pendingCancels {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].recipient != keys[j].recipient {
			return keys[i].recipient < keys[j].recipient
		}
		return keys[i].base < keys[j].base
	})
	for _, k := range keys {
		if _, ok := m.EP.CallTimeout(p, m.Upstream, kindBorrowCancel, 32,
			m.pendingCancels[k], m.GrantTimeout); !ok {
			continue
		}
		delete(m.pendingCancels, k)
		m.Stats.Add("alloc.cancel_retried", 1)
	}
}

// onDelegate services the root MN's cross-rack grant request: the
// normal donor walk, for a recipient outside this rack.
//
// The donor rack applies a restricted admission check for class-tagged
// delegations: admit or decline, with a preemption attempt for classes
// above Preemptible — never queue (a queue wait here would race the
// root's delegateTimeout and the requesting sub's borrowTimeout) and
// never degrade (the recipient's window was escalated at a committed
// size). A decline is an ordinary "no rack donor" to the root, which
// tries the next candidate rack.
func (m *Monitor) onDelegate(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	r := req.(*delegateReq)
	pol, ok := m.resolvePolicy(r.Policy)
	if !ok {
		m.Stats.Add("delegate.declined", 1)
		return &delegateResp{OK: false, Err: fmt.Sprintf("unknown policy %q", r.Policy)}, 64
	}
	if m.Admission != nil && r.Class != tenancy.ClassNone {
		if !m.admitDelegate(p, r) {
			m.Stats.Add("admit.delegate_declined", 1)
			return &delegateResp{OK: false, Err: "admission: donor rack over budget"}, 64
		}
	}
	a, ok := m.grant(p, r.Recipient, r.Res, r.Size, r.WindowBase, r.DelegID, pol, grantMeta{
		latency: r.Latency, trace: r.Trace, tenant: r.Tenant, class: r.Class,
	})
	if !ok {
		m.Stats.Add("delegate.declined", 1)
		return &delegateResp{OK: false, Err: "no rack donor"}, 64
	}
	m.Stats.Add("delegate.granted", 1)
	return &delegateResp{OK: true, AllocID: a.ID, Donor: a.Donor, DonorBase: a.DonorBase}, 64
}

// admitDelegate is the donor-rack admission check for one delegated
// grant: Decide against this rack's pressure, with queue and degrade
// verdicts collapsed to a single preemption attempt (classes above
// Preemptible) and otherwise a decline.
func (m *Monitor) admitDelegate(p *sim.Proc, r *delegateReq) bool {
	if dec, _ := m.decide(r.Res, r.Size, r.Class); dec == tenancy.Admit {
		return true
	}
	if r.Class > tenancy.Preemptible && m.Admission.Preempt && m.preempt(p, r.Recipient, r.Res, r.Size, r.Class) {
		dec, _ := m.decide(r.Res, r.Size, r.Class)
		return dec == tenancy.Admit
	}
	return false
}

// onDelegateFree services the root MN's teardown of a delegated lease
// this rack is backing.
func (m *Monitor) onDelegateFree(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	f := req.(*delegateFreeReq)
	a, ok := m.rat[f.AllocID]
	if !ok || a.Deleg == 0 {
		return &ack{}, 8
	}
	delete(m.rat, f.AllocID)
	m.releaseBacking(p, a)
	m.Stats.Add("free.delegate_backed", 1)
	m.emitLease(LeaseReleased, a, a.Donor)
	return &ack{}, 8
}

// onDelegateCancel services the root MN's key-resolved cancellation of
// a delegate grant whose response was lost: if the grant completed
// here, the row (found by its delegation tag) is torn down; otherwise
// this is a no-op.
func (m *Monitor) onDelegateCancel(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	c := req.(*delegateCancelReq)
	for _, id := range sortedKeys(m.rat) {
		a, ok := m.rat[id]
		if !ok || a.Deleg != c.DelegID {
			continue
		}
		delete(m.rat, id)
		m.releaseBacking(p, a)
		m.Stats.Add("free.delegate_cancelled", 1)
		m.emitLease(LeaseReleased, a, a.Donor)
	}
	return &ack{}, 8
}
