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
//     (replace); the root learns via delegateMoved.
//   - recipient died     -> the recipient rack's sweep notifies the root
//     (cross-rack)          (nodeDown), which reclaims the delegated
//     region through the donor rack's sub-MN.
//   - sub-MN died        -> the root's own sweep notices the missed
//     (control plane)       rackbeats and re-delegates every lease the
//     dead rack was donating: a fresh grant in a surviving
//     rack, then the same relocate+replay path the
//     recipients' agents already implement (PR 3), so
//     in-flight accesses complete instead of being lost.
//
// The root parks what it cannot deliver in its own outbox (outbox.go),
// as a sub-MN does: delegate-frees, cancellations, relocates and
// revokes. A rack falsely declared dead gets its tombstones, the
// delegate-frees for rows whose leases moved while it was gone, on the
// root's next pass after it beats again.

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
//
// The embedded Allocation is the recipient-facing lease the delegation
// stands for, tags and all, as the root's recovery events announce it:
// ID and Deleg are the delegation id, Donor and DonorBase the current
// backing. A device delegation has Size 1 (one unit) and carries the
// recipient sub-MN's pre-minted alloc id in RecipientBase.
type Delegation struct {
	Allocation
	DonorRack     int
	RecipientRack int
	SubAllocID    int
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

	// out parks the root's undelivered letters: delegate-frees (among
	// them the tombstones a rack falsely declared dead comes back to),
	// delegate cancellations, and re-delegation relocates and revokes.
	out outbox
	// cancelled records borrow cancellations that arrived while their
	// election was still in flight (possible if a sub's patience is
	// configured under the root's worst case): the election's success
	// path consults it and unwinds instead of recording a delegation the
	// canceller will never free.
	cancelled map[windowKey]bool

	// Stats counts root activity (borrows, delegations, re-delegations,
	// reclaims).
	Stats sim.Scoreboard

	// OnLease, when set, receives the root's recovery transitions of
	// cross-rack delegations (re-delegations and reclaims; events.go),
	// under the same rules as Monitor.OnLease.
	OnLease func(LeaseEvent)
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
		cancelled:       make(map[windowKey]bool),
	}
	// The root tracks no node reboots: every letter is written against
	// incarnation 0.
	rt.out = outbox{ep: ep, stats: &rt.Stats, incarnation: func(fabric.NodeID) int64 { return 0 }, reachable: rt.reachable}
	ep.HandleInline(kindRackBeat, rt.onRackBeat)
	ep.HandleCall(kindRackBorrow, rt.onRackBorrow)
	ep.HandleCall(kindRackFree, rt.onRackFree)
	ep.HandleCall(kindNodeDown, rt.onNodeDown)
	ep.HandleInline(kindDelegateMoved, rt.onDelegateMoved)
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
// Without recovery the root runs no loop of its own, so a rackbeat
// spawns the redelivery pass when letters are parked; with recovery on
// the sweep owns redelivery, so a redelivered letter never races a
// re-delegation.
func (rt *Root) onRackBeat(_ fabric.NodeID, req any) (any, int) {
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
		// their regions, which the parked tombstones reconcile now that
		// the rack is reachable. A genuinely rebooted sub answers them as
		// stale no-ops.
		rs.Dead = false
		rt.Stats.Add("root.rack_reappeared", 1)
	}
	rs.Sub = b.Sub
	rs.IdleBytes = b.IdleBytes
	rs.Live = b.Live
	rs.Devices = b.Devices
	rs.MaxUtil, rs.HasUtil = b.MaxUtil, b.HasUtil
	rs.LastBeat = rt.EP.Eng.Now()
	rs.Beats++
	rt.Stats.Add("root.rackbeats", 1)
	if !rt.sweepOn && len(rt.out.parked) > 0 {
		rt.EP.Eng.Go("root-outbox", rt.out.redeliver)
	}
	return &ack{}, 8
}

// reachable reports whether a parked letter to id is worth attempting: a
// sub-MN only while its rack beats, anyone else (a recipient's agent,
// whose liveness its own rack's sub-MN owns) always.
func (rt *Root) reachable(id fabric.NodeID) bool {
	for rack, rs := range rt.racks {
		if rs.Sub == id {
			return rt.RackAlive(rack)
		}
	}
	return true
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

// delegateTo asks one rack's sub-MN to back delegation d with req,
// keeping the registry's free account of the resource: a declining or
// unreachable rack is marked drained of it. On success d names its new
// backing. Shared by the borrow election and rack-death re-delegation
// so decline/timeout handling cannot drift between them.
func (rt *Root) delegateTo(p *sim.Proc, rs *RackStatus, d *Delegation, req AllocReq) bool {
	dr := &delegateReq{DelegID: d.ID, Recipient: d.Recipient, AllocReq: req}
	raw, ok := rt.EP.CallTimeout(p, rs.Sub, kindDelegate, 64, dr, rt.delegateTimeout())
	if !ok {
		// The sub may have granted and lost the response; park a
		// key-resolved cancellation so the orphaned row (and region)
		// cannot leak, and so the next candidate's row under the same
		// delegation id never coexists with this one. A later
		// re-delegation can legitimately land the delegation back in this
		// rack; the cancel is then aimed at the live backing and goes
		// stale.
		rt.Stats.Add("root.delegate_timeouts", 1)
		id, rack := d.ID, rs.Rack
		rt.out.park(letter{
			to: rs.Sub, kind: kindDelegateCancel, size: 32, req: &FreeReq{AllocID: id},
			timeout: rt.delegateTimeout(), retried: "root.delegates_cancelled",
			stale: func() bool {
				cur, live := rt.dels[id]
				return live && cur.DonorRack == rack
			},
		}, 0)
		rs.debit(req.Res, rs.free(req.Res))
		return false
	}
	resp := raw.(*AllocResp)
	if !resp.OK {
		rt.Stats.Add("root.delegate_declines", 1)
		rs.debit(req.Res, rs.free(req.Res))
		return false
	}
	rs.debit(req.Res, req.Size)
	d.DonorRack, d.SubAllocID = rs.Rack, resp.AllocID
	d.Donor, d.DonorBase, d.At = resp.Donor, resp.DonorBase, rt.EP.Eng.Now()
	return true
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
	d := &Delegation{RecipientRack: r.Rack, Allocation: Allocation{
		ID: id, Kind: r.Res, Recipient: r.Recipient, RecipientBase: r.WindowBase,
		Size: r.Size, Deleg: id, Tags: r.Tags,
	}}
	for tried, rs := range rt.donorRacks(r.Rack, r.Res, r.Size) {
		if tried >= rootBorrowCandidates {
			break
		}
		if !rt.delegateTo(p, rs, d, r.AllocReq) {
			continue
		}
		if rt.cancelled[key] {
			// The requesting sub gave up and cancelled while this
			// election was still in flight (delegateTo blocks for
			// milliseconds): nobody will ever free this grant, so unwind
			// it instead of recording it.
			delete(rt.cancelled, key)
			rt.freeBacking(p, d)
			rt.Stats.Add("root.borrows_cancelled", 1)
			return &AllocResp{OK: false, Err: "borrow cancelled by requester"}, 64
		}
		rt.dels[id] = d
		rt.Stats.Add("root.delegated", 1)
		return &AllocResp{OK: true, AllocID: id, Donor: d.Donor, DonorBase: d.DonorBase}, 64
	}
	delete(rt.cancelled, key) // a failed election has nothing to cancel
	rt.Stats.Add("root.borrow_failures", 1)
	return &AllocResp{OK: false, Err: fmt.Sprintf(pick(r.Res,
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
	f := req.(*FreeReq)
	d, ok := rt.dels[f.AllocID]
	if !ok {
		return &ack{}, 8
	}
	delete(rt.dels, f.AllocID)
	rt.freeBacking(p, d)
	rt.Stats.Add("root.freed", 1)
	return &ack{}, 8
}

// freeBacking asks a delegation's donor rack to tear down its backing
// region. A rack that is not beating cannot be asked now, so the
// delegate-free parks until it beats again, as does one whose delivery
// is lost: the region stays carved out only until the rack's sub-MN is
// back.
func (rt *Root) freeBacking(p *sim.Proc, d *Delegation) {
	l := rt.delegateFree(d.DonorRack, d.SubAllocID)
	if !rt.RackAlive(d.DonorRack) {
		rt.out.park(l, 0)
	} else if rt.out.send(p, l) {
		return
	}
	rt.Stats.Add("root.free_lost", 1)
}

// delegateFree is the letter asking rack's sub-MN to tear down its RAT
// row id: a delegation's backing on free, or a tombstone for a row whose
// lease moved elsewhere while the rack was presumed dead.
func (rt *Root) delegateFree(rack, id int) letter {
	return letter{
		to: rt.racks[rack].Sub, kind: kindDelegateFree, size: 32, req: &FreeReq{AllocID: id},
		timeout: rt.delegateTimeout(), retried: "root.tombstones_flushed",
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
		rt.freeBacking(p, d)
		rt.Stats.Add("root.reclaimed", 1)
		rt.emitDelegation(LeaseRevoked, d, d.Donor)
	}
	return &ack{}, 8
}

// onDelegateMoved keeps the delegation table truthful when a donor
// rack's own recovery sweep re-placed (or revoked) a delegated lease.
func (rt *Root) onDelegateMoved(from fabric.NodeID, req any) (any, int) {
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
		rt.Stats.Add("root.delegate_revoked", 1)
		return &ack{}, 8
	}
	d.Donor, d.DonorBase, d.At = mv.Donor, mv.DonorBase, rt.EP.Eng.Now()
	rt.Stats.Add("root.delegate_moved", 1)
	return &ack{}, 8
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
	rt.out.redeliver(p)
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
		// carved out of its donor; park a tombstone so a reappearing
		// (falsely-dead) sub-MN drops the stale row and hot-returns the
		// region instead of diverging from the re-delegated truth.
		rt.out.park(rt.delegateFree(dead, d.SubAllocID), 0)
		oldDonor := d.Donor
		moved := false
		// Resend the request the row was granted under: its admitted
		// amount, its key and its tags.
		req := AllocReq{Res: d.Kind, Size: d.Size, WindowBase: d.RecipientBase, Tags: d.Tags}
		for _, rs := range rt.donorRacks(dead, d.Kind, d.Size) {
			if !rt.delegateTo(p, rs, d, req) {
				continue
			}
			if d.Kind == Memory {
				// Device leases carry no hot-plugged window: recipients
				// learn the new donor from the lease-lifecycle event and
				// replay in flight work themselves, so only memory leases
				// need the agent-level relocate.
				rel := &relocateReq{
					AllocID: d.SubAllocID, RecipientBase: d.RecipientBase, Size: d.Size,
					OldDonor: oldDonor, NewDonor: d.Donor, NewDonorBase: d.DonorBase,
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
			if d.Kind == Memory && !rt.out.send(p, letter{
				to: d.Recipient, kind: kindRevoke, size: 32,
				req:     &revokeReq{AllocID: d.SubAllocID, RecipientBase: d.RecipientBase, Size: d.Size},
				timeout: rt.GrantTimeout, retried: "root.revoke_retried",
			}) {
				rt.Stats.Add("root.revoke_lost", 1)
			}
			rt.Stats.Add("root.revoked", 1)
			rt.emitDelegation(LeaseRevoked, d, oldDonor)
		}
	}
}

// deliverRelocate sends a re-delegation's relocate notice to the
// recipient's agent. A lost one parks until it lands or goes stale: the
// delegation is gone or has moved on from the row rel names. When the
// window raced a concurrent free, the agent refuses it, and the root
// drops the delegation and takes the replacement backing down.
func (rt *Root) deliverRelocate(p *sim.Proc, d *Delegation, rel *relocateReq) {
	if !rt.out.send(p, letter{
		to: d.Recipient, kind: kindRelocate, size: 64, req: rel,
		timeout: rt.GrantTimeout, retried: "root.relocate_retried",
		stale: func() bool {
			cur, live := rt.dels[d.ID]
			return !live || cur.Donor != rel.NewDonor || cur.SubAllocID != rel.AllocID
		},
		answer: func(p *sim.Proc, resp any) {
			if !resp.(*relocateResp).OK {
				delete(rt.dels, d.ID)
				rt.freeBacking(p, d)
				rt.Stats.Add("root.raced_free", 1)
			}
		},
	}) {
		rt.Stats.Add("root.relocate_lost", 1)
	}
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
		for {
			m.sendRackBeat(p, interval)
			// Without recovery the beat loop is the one loop a sub-MN
			// runs, so it redelivers parked letters and a lost free or
			// cancel still cannot leak a delegation forever. With recovery
			// on the sweep owns redelivery, so a redelivered relocate never
			// races a failover of the same row.
			if !m.recoveryOn {
				m.out.redeliver(p)
			}
			p.Sleep(interval)
		}
	})
}

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
	req := &rackBorrowReq{Rack: m.Rack, Recipient: from, AllocReq: *r}
	req.Size, req.WindowBase = size, key
	raw, ok := m.EP.CallTimeout(p, m.Upstream, kindRackBorrow, 64, req, m.borrowTimeout())
	if !ok {
		// The response is lost (or the root outran our patience, which
		// the rootBorrowCandidates bound rules out): the borrow may have
		// completed at the root, where nobody else holds a mapping for
		// it. Send a cancellation; the root tears down any matching
		// delegation. An undeliverable cancel parks — a flap must not
		// leak a delegation forever.
		m.Stats.Add("alloc.upstream_timeouts", 1)
		if !m.out.send(p, letter{
			to: m.Upstream, kind: kindBorrowCancel, size: 32,
			req:     &borrowCancelReq{Recipient: from, RecipientBase: key, Res: r.Res},
			timeout: m.GrantTimeout, retried: "alloc.cancel_retried",
		}) {
			m.Stats.Add("alloc.cancel_lost", 1)
		}
		return nil
	}
	resp := raw.(*AllocResp)
	if !resp.OK {
		m.Stats.Add("alloc.upstream_declines", 1)
		return nil
	}
	if id < 0 {
		id = m.nextAllocID
		m.nextAllocID++
	}
	m.delegated[id] = delegatedLease{deleg: resp.AllocID, recipient: from}
	m.Stats.Add("alloc.delegated", 1)
	return r.granted(id, resp.Donor, resp.DonorBase, size)
}

// delegatedLease is a sub-MN's record of one lease another rack backs
// on its recipient's behalf.
type delegatedLease struct {
	deleg     int
	recipient fabric.NodeID
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
	if m.Admission != nil && r.Class != tenancy.ClassNone && !m.admitDelegate(p, r) {
		m.Stats.Add("admit.delegate_declined", 1)
		return &AllocResp{OK: false, Err: "admission: donor rack over budget"}, 64
	}
	a, ok := m.grant(p, r.Recipient, &r.AllocReq, r.Size, r.DelegID)
	if !ok {
		m.Stats.Add("delegate.declined", 1)
		return &AllocResp{OK: false, Err: "no rack donor"}, 64
	}
	m.Stats.Add("delegate.granted", 1)
	return &AllocResp{OK: true, AllocID: a.ID, Donor: a.Donor, DonorBase: a.DonorBase}, 64
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
	f := req.(*FreeReq)
	a, ok := m.rat[f.AllocID]
	if !ok || a.Deleg == 0 {
		return &ack{}, 8
	}
	delete(m.rat, f.AllocID)
	m.releaseBacking(p, a)
	m.Stats.Add("free.delegate_backed", 1)
	return &ack{}, 8
}

// onDelegateCancel services the root MN's key-resolved cancellation of
// a delegate grant whose response was lost: if the grant completed
// here, the row (found by its delegation tag) is torn down; otherwise
// this is a no-op.
func (m *Monitor) onDelegateCancel(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	c := req.(*FreeReq)
	for _, id := range sortedKeys(m.rat) {
		a, ok := m.rat[id]
		if !ok || a.Deleg != c.AllocID {
			continue
		}
		delete(m.rat, id)
		m.releaseBacking(p, a)
		m.Stats.Add("free.delegate_cancelled", 1)
	}
	return &ack{}, 8
}
