package monitor

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/transport"
)

// This file is the sharded monitor plane that scales the §5.3 runtime
// past one rack. The paper's prototype runs a single Monitor Node for
// its 8-node mesh; a multi-rack fabric (fabric.RackSpine) instead runs
// one sub-MN per rack — an ordinary Monitor owning its rack's leases
// and heartbeats — plus a root MN that sees only rack-granularity
// state. Sub-MNs report aggregate idle memory and liveness on a slow
// "rackbeat"; when a rack is memory-starved (or a request carries
// ScopeRemoteRack), its sub-MN escalates to the root, which elects a
// donor rack and delegates the grant to that rack's sub-MN.
//
// Like the paper's prototype, the sharded plane leaves failure aside: a
// sub-MN runs no recovery sweep, migration scan or admission gate
// (StartRackBeat refuses an MN that does), so a delegated row never
// moves under the root. What the plane does survive is a lost control
// message: each MN parks an undelivered free or cancellation in its
// outbox (outbox.go) and redelivers it on a later rackbeat.

// RackStatus is one row of the root MN's rack registry — the
// rack-granularity analogue of a Registration.
type RackStatus struct {
	Rack      int
	Sub       fabric.NodeID
	IdleBytes uint64
	Live      int
	LastBeat  sim.Time
	Beats     int64
	// Devices is the rack's aggregate free device units per kind, as of
	// the last rackbeat, less what the root has delegated since.
	Devices Units
	// advertised is the last rackbeat's aggregate: the classes the row
	// lists (see DeviceCounts).
	advertised Units
}

// DeviceCounts reports the rack's free units of each device class its
// last rackbeat aggregated, by class (a count delegations took to 0
// included), or nil when it aggregated none.
func (rs *RackStatus) DeviceCounts() map[Resource]int { return rs.Devices.listed(&rs.advertised) }

// MarshalJSON renders the row with its device counts as DeviceCounts
// lists them: null for a rack with none.
func (rs RackStatus) MarshalJSON() ([]byte, error) {
	type row RackStatus // the same fields, without this method
	return json.Marshal(struct {
		row
		Devices map[Resource]int
	}{row(rs), rs.DeviceCounts()})
}

// free reports the rack's free amount of res as of its last rackbeat,
// less what the root has delegated since; debit takes amount off it.
func (rs *RackStatus) free(res Resource) uint64 { return freeOf(res, rs.IdleBytes, &rs.Devices) }
func (rs *RackStatus) debit(res Resource, amount uint64) {
	moveFree(res, &rs.IdleBytes, &rs.Devices, -int64(amount))
}

// Delegation is one row of the root MN's delegation table: a lease
// whose donor and recipient live in different racks. The donor rack's
// sub-MN holds the authoritative RAT row (SubAllocID); the root holds
// the rack-level indirection needed to free it.
//
// The embedded Allocation is the recipient-facing lease the delegation
// stands for, tags and all: ID and Deleg are the delegation id, Donor
// and DonorBase the backing. A device delegation has Size 1 (one unit)
// and carries the recipient sub-MN's pre-minted alloc id in
// RecipientBase.
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

	// RackBeatTimeout is how long a rack counts as live after its last
	// rackbeat: a silent rack is elected for no borrow, and a free owed
	// to it waits for its next beat.
	RackBeatTimeout sim.Dur

	racks       map[int]*RackStatus
	dels        map[int]*Delegation
	nextDelegID int

	// out parks the root's undelivered letters: delegate-frees and
	// delegate cancellations.
	out outbox
	// cancelled records borrow cancellations that arrived while their
	// election was still in flight (possible if a sub's patience is
	// configured under the root's worst case): the election's success
	// path consults it and unwinds instead of recording a delegation the
	// canceller will never free.
	cancelled map[windowKey]bool

	// Stats counts root activity (borrows, delegations, frees,
	// cancellations).
	Stats Counters
}

// NewRoot starts a root MN on the given endpoint (typically a spine
// switch's).
func NewRoot(ep *transport.Endpoint) *Root {
	rt := &Root{
		EP:              ep,
		RackBeatTimeout: 3 * sim.Second,
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
	return rs.Beats > 0 && rt.EP.Eng.Now().Sub(rs.LastBeat) <= rt.RackBeatTimeout
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

// onRackBeat folds a sub-MN's rack-level report into the registry. The
// root runs no loop of its own, so a rackbeat spawns the redelivery pass
// when letters are parked: a free or cancel owed to a rack that was
// silent goes out once it beats again.
func (rt *Root) onRackBeat(_ fabric.NodeID, req any) (any, int) {
	b := req.(*rackBeat)
	rs, ok := rt.racks[b.Rack]
	if !ok {
		rs = &RackStatus{Rack: b.Rack}
		rt.racks[b.Rack] = rs
	}
	rs.Sub = b.Sub
	rs.IdleBytes = b.IdleBytes
	rs.Live = b.Live
	rs.Devices, rs.advertised = b.Devices, b.Devices
	rs.LastBeat = rt.EP.Eng.Now()
	rs.Beats++
	rt.Stats.add(statRootRackbeats, 1)
	if len(rt.out.parked) > 0 {
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
// from exclude: live racks with that much free, the rack with the most
// free first. Rack id breaks ties, keeping elections deterministic.
func (rt *Root) donorRacks(exclude int, res Resource, amount uint64) []*RackStatus {
	var cands []*RackStatus
	for _, rs := range rt.racks {
		if rs.Rack == exclude || !rt.RackAlive(rs.Rack) || rs.free(res) < amount {
			continue
		}
		cands = append(cands, rs)
	}
	slices.SortFunc(cands, func(a, b *RackStatus) int {
		if c := cmp.Compare(b.free(res), a.free(res)); c != 0 {
			return c
		}
		return cmp.Compare(a.Rack, b.Rack)
	})
	return cands
}

// delegateTimeout bounds one delegate call: the sub's donor walk can
// itself burn a few grant timeouts on dying candidates.
func (rt *Root) delegateTimeout() sim.Dur { return 3 * grantTimeout(rt.EP.P) }

// rootBorrowCandidates caps how many racks one borrow election may try.
// The cap keeps the root's worst case (rootBorrowCandidates delegate
// calls) strictly inside the requesting sub-MN's borrowTimeout, so a
// sub that gives up can trust that the root's walk has finished — the
// property the escalation cancellation (cancelBorrow) relies on.
const rootBorrowCandidates = 2

// delegateTo asks one rack's sub-MN to back delegation d with req,
// keeping the registry's free account of the resource: a declining or
// unreachable rack is marked drained of it. On success d names its
// backing.
func (rt *Root) delegateTo(p *sim.Proc, rs *RackStatus, d *Delegation, req AllocReq) bool {
	dr := &delegateReq{DelegID: d.ID, Recipient: d.Recipient, AllocReq: req}
	raw, ok := rt.EP.CallTimeout(p, rs.Sub, kindDelegate, 64, dr, rt.delegateTimeout())
	if !ok {
		// The sub may have granted and lost the response; park a
		// key-resolved cancellation so the orphaned row (and region)
		// cannot leak. An election tries each rack once, so the
		// delegation's live backing, if any, is never in this rack.
		rt.Stats.add(statRootDelegateTimeouts, 1)
		rt.out.park(letter{
			to: rs.Sub, kind: kindDelegateCancel, size: 32, req: &FreeReq{AllocID: d.ID},
			timeout: rt.delegateTimeout(), retried: statRootDelegatesCancelled,
		}, 0)
		rs.debit(req.Res, rs.free(req.Res))
		return false
	}
	resp := raw.(*AllocResp)
	if !resp.OK {
		rt.Stats.add(statRootDelegateDeclines, 1)
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
	rt.Stats.add(statRootBorrows, 1)
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
			rt.Stats.add(statRootBorrowsCancelled, 1)
			return &AllocResp{}, 64
		}
		rt.dels[id] = d
		rt.Stats.add(statRootDelegated, 1)
		return &AllocResp{OK: true, AllocID: id, Donor: d.Donor, DonorBase: d.DonorBase}, 64
	}
	delete(rt.cancelled, key) // a failed election has nothing to cancel
	rt.Stats.add(statRootBorrowFailures, 1)
	return &AllocResp{}, 64
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
		rt.Stats.add(statRootBorrowsCancelled, 1)
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
	rt.Stats.add(statRootFreed, 1)
	return &ack{}, 8
}

// freeBacking asks a delegation's donor rack to tear down its backing
// region. A rack that is not beating cannot be asked now, so the
// delegate-free parks until it beats again, as does one whose delivery
// is lost: the region stays carved out only until the rack's sub-MN is
// back.
func (rt *Root) freeBacking(p *sim.Proc, d *Delegation) {
	l := letter{
		to: rt.racks[d.DonorRack].Sub, kind: kindDelegateFree, size: 32, req: &FreeReq{AllocID: d.SubAllocID},
		timeout: rt.delegateTimeout(), retried: statRootDelegateFreesRetried,
	}
	if !rt.RackAlive(d.DonorRack) {
		rt.out.park(l, 0)
	} else if rt.out.send(p, l) {
		return
	}
	rt.Stats.add(statRootFreeLost, 1)
}

// --- sub-MN side -----------------------------------------------------

// StartRackBeat turns this Monitor into a sub-MN of the sharded plane:
// it begins reporting rack-level state (aggregate idle bytes, live node
// count) to the root MN at root, and enables escalation of requests its
// rack cannot serve. The first beat is staggered past every agent's
// first heartbeat so the initial report carries real idle figures. A
// second call does nothing.
//
// A sub-MN never moves or revokes a row on its own: the root's
// delegation table would go stale behind a re-placed, migrated or
// preempted delegated row. So StartRackBeat panics on an MN whose
// recovery or migration loop runs or whose Admission is set, and
// StartRecovery and StartMigration panic on a sub-MN.
func (m *Monitor) StartRackBeat(root fabric.NodeID, rack int, interval sim.Dur) {
	switch {
	case m.hasUpstream:
		return
	case m.recoveryOn, m.migrationOn, m.Admission != nil:
		panic("monitor: a sub-MN runs no recovery, migration or admission")
	}
	m.upstream, m.hasUpstream, m.rack = root, true, rack
	if interval <= 0 {
		interval = sim.Second
	}
	m.EP.Eng.Go(fmt.Sprintf("submn@%v-rackbeat", m.EP.ID), func(p *sim.Proc) {
		p.Sleep(sim.Dur(m.Topo.N+2+rack) * sim.Millisecond)
		for {
			m.sendRackBeat(p, interval)
			// The beat loop is the one loop a sub-MN runs, so it
			// redelivers parked letters: a lost free or cancel cannot leak
			// a delegation forever.
			m.out.redeliver(p)
			p.Sleep(interval)
		}
	})
}

// flatOnly panics on a sub-MN, which runs no loop of the kind named.
func (m *Monitor) flatOnly(loop string) {
	if m.hasUpstream {
		panic("monitor: a sub-MN runs no " + loop)
	}
}

// sendRackBeat sends one rack-level report to the root MN: the rack's
// live idle bytes, live nodes and free device units, so the root scales
// with racks, not nodes.
func (m *Monitor) sendRackBeat(p *sim.Proc, interval sim.Dur) {
	var idle uint64
	live := 0
	var devs Units
	for _, r := range m.rrt {
		if !r.Dead && m.NodeAlive(r.Node) {
			idle += r.IdleBytes
			live++
			for k, v := range r.Devices {
				devs[k] += max(v, 0)
			}
		}
	}
	b := &rackBeat{Rack: m.rack, Sub: m.EP.ID, IdleBytes: idle, Live: live, Devices: devs}
	if _, ok := m.EP.CallTimeout(p, m.upstream, kindRackBeat, 64, b, interval); !ok {
		m.Stats.add(statRackbeatsLost, 1)
	}
	m.Stats.add(statRackbeats, 1)
}

// borrowTimeout bounds one escalation round trip. It must exceed the
// root's bounded worst case — rootBorrowCandidates delegate calls of
// 3×grantTimeout each — so that when escalate gives up, the root's
// election has provably finished and a cancellation is authoritative.
func (m *Monitor) borrowTimeout() sim.Dur { return 8 * grantTimeout(m.EP.P) }

// escalate forwards a request the rack cannot serve to the root MN and,
// on success, records the recipient-facing alloc-id → delegation-id
// mapping so the lease frees through the same Free call path.
//
// The borrow's cancellation key is memory's window. A device has no
// window, so the sub mints the recipient-facing alloc id up front and
// rides it in WindowBase as the key; memory mints its id on success.
func (m *Monitor) escalate(p *sim.Proc, from fabric.NodeID, r *AllocReq) (AllocResp, bool) {
	id, key := -1, r.WindowBase
	if r.Res != Memory {
		id = m.nextAllocID
		m.nextAllocID++
		key = uint64(id)
	}
	req := &rackBorrowReq{Rack: m.rack, Recipient: from, AllocReq: *r}
	req.Size, req.WindowBase = r.amount(), key
	raw, ok := m.EP.CallTimeout(p, m.upstream, kindRackBorrow, 64, req, m.borrowTimeout())
	if !ok {
		// The response is lost (or the root outran our patience, which
		// the rootBorrowCandidates bound rules out): the borrow may have
		// completed at the root, where nobody else holds a mapping for
		// it. Send a cancellation; the root tears down any matching
		// delegation. An undeliverable cancel parks — a flap must not
		// leak a delegation forever.
		m.Stats.add(statAllocUpstreamTimeouts, 1)
		if !m.out.send(p, letter{
			to: m.upstream, kind: kindBorrowCancel, size: 32,
			req:     &borrowCancelReq{Recipient: from, RecipientBase: key, Res: r.Res},
			timeout: grantTimeout(m.EP.P), retried: statAllocCancelRetried,
		}) {
			m.Stats.add(statAllocCancelLost, 1)
		}
		return AllocResp{}, false
	}
	resp := raw.(*AllocResp)
	if !resp.OK {
		m.Stats.add(statAllocUpstreamDeclines, 1)
		return AllocResp{}, false
	}
	if id < 0 {
		id = m.nextAllocID
		m.nextAllocID++
	}
	m.delegated[id] = delegatedLease{deleg: resp.AllocID, recipient: from}
	m.Stats.add(statAllocDelegated, 1)
	return AllocResp{OK: true, AllocID: id, Donor: resp.Donor, DonorBase: resp.DonorBase}, true
}

// delegatedLease is a sub-MN's record of one lease another rack backs
// on its recipient's behalf.
type delegatedLease struct {
	deleg     int
	recipient fabric.NodeID
}

// onDelegate services the root MN's cross-rack grant request: the
// normal donor walk, for a recipient outside this rack. A rack with no
// donor declines, and the root tries the next candidate rack.
func (m *Monitor) onDelegate(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	r := req.(*delegateReq)
	a, ok := m.grant(p, r.Recipient, &r.AllocReq, r.Size, r.DelegID)
	if !ok {
		m.Stats.add(statDelegateDeclined, 1)
		return &AllocResp{}, 64
	}
	m.Stats.add(statDelegateGranted, 1)
	return &AllocResp{OK: true, AllocID: a.ID, Donor: a.Donor, DonorBase: a.DonorBase}, 64
}

// onDelegateFree services the root MN's teardown of a delegated lease
// this rack is backing.
func (m *Monitor) onDelegateFree(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	f := req.(*FreeReq)
	a, ok := m.rat[f.AllocID]
	if !ok || a.Deleg == 0 {
		return &ack{}, 8
	}
	m.dropRow(a)
	m.releaseBacking(p, a)
	m.Stats.add(statFreeDelegateBacked, 1)
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
		m.dropRow(a)
		m.releaseBacking(p, a)
		m.Stats.add(statFreeDelegateCancelled, 1)
	}
	return &ack{}, 8
}
