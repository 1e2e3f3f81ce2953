package monitor

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/transport"
)

// Registration is one node's row in the Resource Registration Table.
type Registration struct {
	Node      fabric.NodeID
	IdleBytes uint64
	Devices   map[Resource]int
	LastBeat  sim.Time
	Beats     int64

	// Incarnation is the node's reboot count as of its last heartbeat.
	Incarnation int64
	// Dead latches once the recovery sweep declares the node failed; it
	// clears when heartbeats resume.
	Dead bool
	// needsRecovery marks a node whose heartbeat announced a reboot
	// (incarnation bump) — its donations are gone even though it is
	// beating. The sweep consumes the flag.
	needsRecovery bool
}

// free reports how much of res the row can still grant: its idle bytes,
// or its free units of one device class.
func (r *Registration) free(res Resource) uint64 { return freeOf(res, r.IdleBytes, r.Devices) }

// debit takes amount of res off the row's free account; credit gives it
// back.
func (r *Registration) debit(res Resource, amount uint64) {
	moveFree(res, &r.IdleBytes, r.Devices, -int64(amount))
}
func (r *Registration) credit(res Resource, amount uint64) {
	moveFree(res, &r.IdleBytes, r.Devices, int64(amount))
}

// freeOf and moveFree read and move one resource in an (idle bytes,
// device units) account, the shape RRT rows and rack registry rows
// share. Negative device counts read as none free.
func freeOf(res Resource, idle uint64, devs map[Resource]int) uint64 {
	if res == Memory {
		return idle
	}
	return uint64(max(devs[res], 0))
}

func moveFree(res Resource, idle *uint64, devs map[Resource]int, delta int64) {
	switch {
	case res == Memory:
		*idle += uint64(delta)
	case devs != nil:
		devs[res] += int(delta)
	}
}

// Allocation is one row of the Resource Allocation Table.
type Allocation struct {
	ID            int
	Kind          Resource // memory, or the class of a one-unit device lease
	Donor         fabric.NodeID
	Recipient     fabric.NodeID
	DonorBase     uint64
	RecipientBase uint64
	Size          uint64
	At            sim.Time

	// Latency marks a latency-sensitive lease: the migration loop works
	// for it (moving bulk leases off its hot path) and never moves it —
	// a retarget-and-replay pause is exactly what the class forbids.
	Latency bool

	// Deleg is the root MN's delegation id when this row backs a lease
	// delegated from another rack (the recipient is outside this sub-MN's
	// rack); 0 for ordinary local grants.
	Deleg int

	// Trace is the lease trace id the requester minted at Acquire time;
	// lifecycle events for this row (grant, free, failover, migration,
	// revocation) carry it so observability layers can chain them into
	// one per-lease span history. Purely passive.
	Trace uint64

	// Tenant/Class identify the owning tenant as of the request
	// (admission.go). Class steers the preemption scan: Preemptible rows
	// are the victims it may revoke for a higher class. Zero values mark
	// a pre-tenancy (untagged) lease.
	Tenant uint64
	Class  tenancy.Class
}

// LinkStatus is one row of the Topology Status Table. Util carries the
// windowed utilization the owning agent last sampled for the link
// (HasUtil distinguishes "idle" from "never sampled" — agents only
// report it when telemetry is enabled).
type LinkStatus struct {
	A, B     fabric.NodeID
	Up       bool
	LastSeen sim.Time
	Util     float64
	HasUtil  bool
}

// Monitor is the Monitor Node runtime. One instance runs on a designated
// node's endpoint. (The paper notes the MN should be replicated to avoid
// a single point of failure but, like the prototype, we run one.)
type Monitor struct {
	EP   *transport.Endpoint
	Topo fabric.Topology

	rrt map[fabric.NodeID]*Registration
	rat map[int]*Allocation
	tst map[[2]fabric.NodeID]*LinkStatus

	nextAllocID int

	// Policy orders donor candidates; nil means the prototype's
	// distance-first policy.
	Policy Policy

	// Admission is the tenancy admission controller's policy
	// (admission.go): per-class thresholds plus the preemption switch,
	// consulted before every tagged grant. nil (the
	// default) disables admission entirely — every pre-tenancy workload
	// runs byte-identically. On a sub-MN the controller gates against
	// the rack's own pressure.
	Admission *tenancy.Config

	// HeartbeatTimeout marks a node dead when its reports stop.
	HeartbeatTimeout sim.Dur

	// SweepInterval is the recovery loop's scan period (see
	// StartRecovery); it defaults to half the heartbeat timeout.
	SweepInterval sim.Dur

	// GrantTimeout bounds the MN's calls into agents (hot-remove at grant
	// and failover time, hot-return, relocate): a donor that dies while
	// servicing a request must not wedge the Monitor Node forever. It
	// must comfortably exceed one hot-plug operation plus a round trip.
	GrantTimeout sim.Dur

	// Sharded-plane wiring (see shard.go). A Monitor with HasUpstream set
	// is a sub-MN: it owns one rack's leases and heartbeats, escalates
	// requests its rack cannot serve to the root MN at Upstream, and
	// reports rack-level state there.
	Upstream    fabric.NodeID
	HasUpstream bool
	Rack        int
	// delegated maps this sub-MN's recipient-facing alloc ids onto root
	// delegation ids (plus the owning recipient, so frees enforce the
	// same ownership check as local rows) for leases backed by another
	// rack.
	delegated map[int]delegatedLease
	// pendingRackFrees parks upstream releases whose delivery to the
	// root was lost; the sweep retries them so a link flap cannot leak
	// a delegation forever. pendingCancels does the same for escalation
	// cancellations (keyed by recipient + window, the cancellation's own
	// resolution key).
	pendingRackFrees map[int]*rackFreeReq
	pendingCancels   map[windowKey]*borrowCancelReq
	// rackBeatOn gates the rack-level report loop.
	rackBeatOn bool

	// recovery loop state.
	recoveryOn bool
	// orphans queues hot-returns owed to donors that were declared dead
	// and had their leases re-placed. If such a donor reappears with the
	// same incarnation (heartbeat loss, not a reboot), its regions are
	// still hot-removed and exported; the queued returns clean them up.
	orphans map[fabric.NodeID][]*hotReturnReq
	// pendingRelocates / pendingRevokes park recovery notices whose
	// delivery to a recipient timed out (e.g. a link flap on the path).
	// The sweep retries them: committing a failover while the recipient
	// still aims at the dead donor would wedge the recipient forever.
	pendingRelocates map[int]*pendingNotice[relocateReq]
	pendingRevokes   map[int]*pendingNotice[revokeReq]

	// Spare-region pool state (spare.go): per-donor pre-plugged regions
	// that let failover and migration skip the hot-plug latency.
	sparePoolOn  bool
	spareSize    uint64
	sparePer     int
	spares       map[fabric.NodeID][]spareRegion
	sparePending map[fabric.NodeID]int

	// Migration loop state (migrate.go).
	migrationOn bool
	// MigrateUtil is the windowed path-utilization threshold above which
	// a lease is considered hot (0 selects the default, 0.75);
	// MigrateMargin is how much cooler a destination path must be for a
	// move to be worthwhile (0 selects the default, 0.20).
	MigrateUtil   float64
	MigrateMargin float64

	// Stats counts runtime activity, including allocation retries caused
	// by stale RRT records (§5.3's handshake-and-retry).
	Stats sim.Scoreboard

	// observers receive lease-lifecycle events (see events.go).
	observers leaseObservers
}

// New starts a Monitor on the given endpoint.
func New(ep *transport.Endpoint, topo fabric.Topology) *Monitor {
	m := &Monitor{
		EP:               ep,
		Topo:             topo,
		rrt:              make(map[fabric.NodeID]*Registration),
		rat:              make(map[int]*Allocation),
		tst:              make(map[[2]fabric.NodeID]*LinkStatus),
		HeartbeatTimeout: 3 * sim.Second,
		GrantTimeout:     10*ep.P.HotplugOp + sim.Millisecond,
		orphans:          make(map[fabric.NodeID][]*hotReturnReq),
		pendingRelocates: make(map[int]*pendingNotice[relocateReq]),
		pendingRevokes:   make(map[int]*pendingNotice[revokeReq]),
		delegated:        make(map[int]delegatedLease),
		pendingRackFrees: make(map[int]*rackFreeReq),
		pendingCancels:   make(map[windowKey]*borrowCancelReq),
		spares:           make(map[fabric.NodeID][]spareRegion),
		sparePending:     make(map[fabric.NodeID]int),
	}
	ep.HandleCall(kindHeartbeat, m.onHeartbeat)
	ep.HandleCall(kindAlloc, m.onAlloc)
	ep.HandleCall(kindFree, m.onFree)
	ep.HandleCall(kindDelegate, m.onDelegate)
	ep.HandleCall(kindDelegateFree, m.onDelegateFree)
	ep.HandleCall(kindDelegateCancel, m.onDelegateCancel)
	return m
}

// Node reports the MN's node id.
func (m *Monitor) Node() fabric.NodeID { return m.EP.ID }

// Registered reports a copy of a node's RRT row.
func (m *Monitor) Registered(id fabric.NodeID) (Registration, bool) {
	r, ok := m.rrt[id]
	if !ok {
		return Registration{}, false
	}
	return *r, true
}

// Registrations returns the live RRT rows, ordered by node id — the
// donor-population snapshot observability surfaces export. Device maps
// are copied, so callers may hold the rows across MN activity.
func (m *Monitor) Registrations() []Registration {
	ids := make([]fabric.NodeID, 0, len(m.rrt))
	for id := range m.rrt {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Registration, 0, len(ids))
	for _, id := range ids {
		r := *m.rrt[id]
		if r.Devices != nil {
			devs := make(map[Resource]int, len(r.Devices))
			for k, v := range r.Devices {
				devs[k] = v
			}
			r.Devices = devs
		}
		out = append(out, r)
	}
	return out
}

// Links returns the TST rows, ordered by link key — the fabric-health
// snapshot observability surfaces export.
func (m *Monitor) Links() []LinkStatus {
	keys := make([][2]fabric.NodeID, 0, len(m.tst))
	for k := range m.tst {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]LinkStatus, 0, len(keys))
	for _, k := range keys {
		out = append(out, *m.tst[k])
	}
	return out
}

// Allocations returns the live RAT rows, ordered by id.
func (m *Monitor) Allocations() []Allocation {
	ids := make([]int, 0, len(m.rat))
	for id := range m.rat {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]Allocation, 0, len(ids))
	for _, id := range ids {
		out = append(out, *m.rat[id])
	}
	return out
}

// Allocation returns a copy of one live RAT row by id.
func (m *Monitor) Allocation(id int) (Allocation, bool) {
	a, ok := m.rat[id]
	if !ok {
		return Allocation{}, false
	}
	return *a, true
}

// LinkUp reports the TST state of link a<->b (true when never reported).
func (m *Monitor) LinkUp(a, b fabric.NodeID) bool {
	if s, ok := m.tst[linkKey(a, b)]; ok {
		return s.Up
	}
	return true
}

// NodeAlive reports whether heartbeats from id are recent.
func (m *Monitor) NodeAlive(id fabric.NodeID) bool {
	r, ok := m.rrt[id]
	if !ok {
		return false
	}
	return m.EP.Eng.Now().Sub(r.LastBeat) <= m.HeartbeatTimeout
}

func linkKey(a, b fabric.NodeID) [2]fabric.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]fabric.NodeID{a, b}
}

// onHeartbeat folds an agent report into the RRT and TST. It also drives
// the fast half of failure detection: a heartbeat from a node the sweep
// declared dead clears the death latch (and, when the incarnation is
// unchanged — the node never actually rebooted — settles any hot-returns
// owed from falsely re-placed leases), while an incarnation bump flags
// the node for recovery even though it never missed enough beats.
func (m *Monitor) onHeartbeat(p *sim.Proc, from fabric.NodeID, req any) (any, int) {
	hb := req.(*Heartbeat)
	r, ok := m.rrt[hb.Node]
	if !ok {
		r = &Registration{Node: hb.Node, Incarnation: hb.Incarnation}
		m.rrt[hb.Node] = r
	}
	if hb.Incarnation > r.Incarnation {
		// The node rebooted: its memory (and every donation carved from
		// it) is gone, whether or not we noticed the outage — including
		// any hot-returns we owed its previous life.
		r.Incarnation = hb.Incarnation
		r.needsRecovery = true
		delete(m.orphans, hb.Node)
		m.Stats.Add("recover.reboots_seen", 1)
	}
	if r.Dead {
		r.Dead = false
		m.Stats.Add("recover.reappeared", 1)
		if !r.needsRecovery {
			// Same incarnation: the node was healthy all along (lost
			// heartbeats). Return the regions we re-placed out from under
			// it so they stop leaking. (The recovery sweep also settles
			// orphans owed to nodes that were never declared dead.)
			m.flushOrphans(p, hb.Node)
		}
	}
	r.IdleBytes = hb.IdleBytes
	r.Devices = hb.Devices
	if len(hb.Devices) > 0 {
		// Agents advertise installed device counts, not free ones (they
		// don't know which units the MN has leased out). Re-debit the live
		// grants so a heartbeat cannot resurrect a unit that is on loan —
		// the device analogue of IdleBytes, which agents do track.
		for _, a := range m.rat {
			if a.Kind != Memory && a.Donor == hb.Node {
				r.Devices[a.Kind]--
			}
		}
	}
	r.LastBeat = m.EP.Eng.Now()
	r.Beats++
	for _, lp := range hb.Links {
		key := linkKey(hb.Node, lp.Peer)
		s, ok := m.tst[key]
		if !ok {
			s = &LinkStatus{A: key[0], B: key[1]}
			m.tst[key] = s
		}
		s.Up = lp.Up
		s.LastSeen = m.EP.Eng.Now()
		if lp.HasUtil {
			// Both endpoints may sample the same link; keep the freshest
			// report (last writer wins — reports carry the same window
			// semantics either way).
			s.Util = lp.Util
			s.HasUtil = true
		}
	}
	_ = from
	m.Stats.Add("heartbeats", 1)
	return &ack{}, 8
}

// donorCandidates collects live donors and orders them with pol — the
// per-request policy override when non-nil, else the MN's configured
// policy, else the prototype default (distance only, §5.3). The policy
// sees the current telemetry View.
func (m *Monitor) donorCandidates(requester fabric.NodeID, pol Policy) []*Registration {
	var cands []*Registration
	for _, r := range m.rrt {
		if r.Node == requester || !m.NodeAlive(r.Node) {
			continue
		}
		cands = append(cands, r)
	}
	if pol == nil {
		pol = m.Policy
	}
	if pol == nil {
		pol = DistanceFirst{}
	}
	pol.Choose(m.view(), requester, cands)
	return cands
}

// onAlloc services a request for an amount of one resource: admission
// for class-tagged requests, the local donor walk first (unless the
// scope hint forbids it), then — on a sub-MN — escalation to the root
// MN when the rack is starved or the request asked for a remote rack
// outright. The reply's wire size is the resource's.
func (m *Monitor) onAlloc(p *sim.Proc, from fabric.NodeID, req any) (any, int) {
	r := req.(*AllocReq)
	wire := pick(r.Res, 64, 32)
	pol, ok := m.resolvePolicy(r.Policy)
	if !ok {
		return &AllocResp{OK: false, Err: fmt.Sprintf("unknown policy %q", r.Policy)}, wire
	}
	// Tagged requests pass the admission controller first: it may admit
	// the full amount, shrink it (degraded grant), hold the request for a
	// bounded wait, preempt Preemptible leases for a higher class, or
	// reject outright. Untagged requests (Class zero) bypass it.
	size := r.amount()
	if m.Admission != nil && r.Class != tenancy.ClassNone {
		g, rejected := m.admit(p, from, r.Res, size, r.Class)
		if rejected {
			m.Stats.Add("admit.rejected", 1)
			return &AllocResp{OK: false, Rejected: true, Err: fmt.Sprintf(pick(r.Res,
				"admission: %[1]s class over budget for %[2]d bytes",
				"admission: %[1]s class over budget for a %[3]s"), r.Class, size, r.Res)}, wire
		}
		size = g
	}
	if r.Scope != ScopeRemoteRack {
		if a, ok := m.grant(p, from, r.Res, size, r.WindowBase, 0, pol, grantMeta{
			latency: r.Latency, trace: r.Trace, tenant: r.Tenant, class: r.Class,
		}); ok {
			m.Stats.Add(r.Res.allocKey(), 1)
			return r.granted(a.ID, a.Donor, a.DonorBase, size), wire
		}
	}
	if m.HasUpstream && r.Scope != ScopeLocalRack {
		if resp := m.escalate(p, from, r, size); resp != nil {
			return resp, wire
		}
	}
	m.Stats.Add("alloc.failures", 1)
	return &AllocResp{OK: false, Err: fmt.Sprintf(pick(r.Res,
		"no donor with %[1]d idle bytes", "no %[2]s available"), size, r.Res)}, wire
}

// granted is the success answer to r, flagging a degraded size.
func (r *AllocReq) granted(id int, donor fabric.NodeID, donorBase, size uint64) *AllocResp {
	resp := &AllocResp{OK: true, AllocID: id, Donor: donor, DonorBase: donorBase}
	if size != r.amount() {
		resp.Granted = size
	}
	return resp
}

// resolvePolicy maps a request's policy-override name onto a Policy:
// "" means no override (nil — the MN's own policy applies), anything
// else must be registered.
func (m *Monitor) resolvePolicy(name string) (Policy, bool) {
	if name == "" {
		return nil, true
	}
	return PolicyByName(name)
}

// grantMeta carries the per-request row annotations threaded through the
// donor walk: the latency-sensitive flag for the migration loop, the
// requester's lease trace id, and the owning tenant identity for the
// admission/preemption plane. All passive — none of it steers placement.
type grantMeta struct {
	latency bool
	trace   uint64
	tenant  uint64
	class   tenancy.Class
}

// grant runs the donor walk for amount of res on recipient's behalf:
// find a live candidate with that much free, run the resource's donor
// handshake, and record the RAT row. Only the handshake differs by
// resource: memory asks the donor's agent to hot-remove and export the
// region at windowBase (hotRemove), a device unit is a table debit and
// its row carries no window. deleg tags the row with a root delegation
// id when the grant backs a cross-rack lease; pol, when non-nil,
// overrides the MN's placement policy for this walk; meta carries the
// row's passive annotations (latency class, trace id, tenant identity).
func (m *Monitor) grant(p *sim.Proc, recipient fabric.NodeID, res Resource, amount, windowBase uint64, deleg int, pol Policy, meta grantMeta) (*Allocation, bool) {
	for _, cand := range m.donorCandidates(recipient, pol) {
		if cand.free(res) < amount {
			continue
		}
		// Cross-check liveness at grant time: the candidate list was
		// drawn before any blocking call, and a donor that died while an
		// earlier candidate was being tried would get a doomed lease.
		if !m.NodeAlive(cand.Node) {
			m.Stats.Add("alloc.dead_skips", 1)
			continue
		}
		var donorBase, window uint64
		if res == Memory {
			base, ok := m.hotRemove(p, cand, recipient, amount, windowBase, false)
			if !ok {
				continue
			}
			donorBase, window = base, windowBase
		}
		id := m.nextAllocID
		m.nextAllocID++
		a := &Allocation{
			ID: id, Kind: res, Donor: cand.Node, Recipient: recipient,
			DonorBase: donorBase, RecipientBase: window,
			Size: amount, At: m.EP.Eng.Now(), Deleg: deleg, Latency: meta.latency,
			Trace: meta.trace, Tenant: meta.tenant, Class: meta.class,
		}
		m.rat[id] = a
		cand.debit(res, amount)
		m.emitLease(LeaseGranted, a, a.Donor)
		if res == Memory {
			m.topUpSpares()
		}
		return a, true
	}
	return nil, false
}

// hotRemove is memory's donor handshake: ask cand's agent to hot-remove
// size bytes and export them to recipient's window. RRT records can be
// stale, so a donor that declines is marked drained and the walk
// retries the next candidate (handshake-and-retry, §5.3). The grant
// walk counts its timeouts and retries under alloc.*, re-placement
// (recovery) under recover.*.
func (m *Monitor) hotRemove(p *sim.Proc, cand *Registration, recipient fabric.NodeID, size, windowBase uint64, recovery bool) (uint64, bool) {
	hr := &hotRemoveReq{Size: size, Recipient: recipient, RecipientBase: windowBase}
	inc := m.incarnationOf(cand.Node)
	raw, ok := m.EP.CallTimeout(p, cand.Node, kindHotRemove, 64, hr, m.GrantTimeout)
	if !ok {
		// The donor died mid-handshake (its agent never answered);
		// without the timeout this request would wedge the MN forever.
		// We cannot know whether the hot-remove happened and its ACK
		// was lost, so park a cancellation (key-resolved hot-return)
		// for when the donor is reachable again.
		m.Stats.Add(either(recovery, "recover.grant_timeouts", "alloc.grant_timeouts"), 1)
		m.queueOrphan(cand.Node, inc, &hotReturnReq{Recipient: recipient, RecipientBase: windowBase})
		cand.IdleBytes = 0
		return 0, false
	}
	resp := raw.(*hotRemoveResp)
	if !resp.OK {
		// Stale RRT record; mark what we learned and retry.
		m.Stats.Add(either(recovery, "recover.retries", "alloc.retries"), 1)
		cand.IdleBytes = 0
		return 0, false
	}
	return resp.Base, true
}

// onFree tears an allocation down by its row's resource, handing the
// backing back to its donor — or, for a lease delegated from another
// rack, forwarding the release up to the root MN, which owns the
// donor-rack indirection.
func (m *Monitor) onFree(p *sim.Proc, from fabric.NodeID, req any) (any, int) {
	f := req.(*FreeReq)
	if ref, ok := m.delegated[f.AllocID]; ok {
		if ref.recipient != from {
			return &ack{}, 8
		}
		delete(m.delegated, f.AllocID)
		fr := &rackFreeReq{DelegID: ref.deleg}
		if _, ok := m.EP.CallTimeout(p, m.Upstream, kindRackFree, 32, fr, 3*m.GrantTimeout); !ok {
			// Lost to the spine: park for sweep retry — a dropped free
			// must not leak the delegation and its donor-rack backing.
			m.pendingRackFrees[ref.deleg] = fr
			m.Stats.Add("free.upstream_lost", 1)
		}
		m.Stats.Add("free.delegated", 1)
		return &ack{}, 8
	}
	a, ok := m.rat[f.AllocID]
	if !ok || a.Recipient != from {
		return &ack{}, 8
	}
	delete(m.rat, f.AllocID)
	m.releaseBacking(p, a)
	m.Stats.Add(pick(a.Kind, "free.memory", "free.device"), 1)
	m.emitLease(LeaseReleased, a, a.Donor)
	return &ack{}, 8
}

// releaseBacking hands a torn-down row's backing back to its donor by
// the row's resource and restores the RRT account: memory hot-returns
// the region through the donor's agent (parking an orphan return when
// the donor is unreachable), a device unit is a table credit.
func (m *Monitor) releaseBacking(p *sim.Proc, a *Allocation) {
	if a.Kind == Memory {
		ret := a.hotReturn(a.DonorBase)
		inc := m.incarnationOf(a.Donor)
		if _, ok := m.EP.CallTimeout(p, a.Donor, kindHotReturn, 64, ret, m.GrantTimeout); !ok {
			// Donor unreachable: park the return with the orphan queue so it
			// settles if the donor reappears un-rebooted.
			m.queueOrphan(a.Donor, inc, ret)
			m.Stats.Add("free.donor_unreachable", 1)
		}
	}
	if r, ok := m.rrt[a.Donor]; ok {
		r.credit(a.Kind, a.Size)
	}
}
