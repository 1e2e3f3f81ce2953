package monitor

import (
	"fmt"
	"maps"
	"slices"
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
	// Devices is the row's free units of each device class: its node's
	// last heartbeat's counts less the units on loan, as grants, frees
	// and re-placements have moved them since.
	Devices  Units
	LastBeat sim.Time
	Beats    int64

	// Incarnation is the node's reboot count as of its last heartbeat.
	Incarnation int64
	// Dead latches once the recovery sweep declares the node failed; it
	// clears when heartbeats resume.
	Dead bool
	// needsRecovery marks a node whose heartbeat announced a reboot
	// (incarnation bump) — its donations are gone even though it is
	// beating. The sweep consumes the flag.
	needsRecovery bool

	// advertised is the device counts the node's last heartbeat carried:
	// the classes the row lists (see DeviceCounts).
	advertised Units
	// leased counts the node's device units on loan, by class: its live
	// RAT rows of each device class, kept by the RAT helpers (addRow,
	// dropRow, moveRow).
	leased Units
	// links caches the TST rows of the node's last beat's probes, in
	// probe order (see linkRow).
	links []*LinkStatus
}

// DeviceCounts reports the row's free units of each device class its
// node's last heartbeat advertised, by class (a count the units on loan
// took to 0 included), or nil when it advertised none: the device
// counts observability surfaces render.
func (r *Registration) DeviceCounts() map[Resource]int { return r.Devices.listed(&r.advertised) }

// free reports how much of res the row can still grant: its idle bytes,
// or its free units of one device class.
func (r *Registration) free(res Resource) uint64 { return freeOf(res, r.IdleBytes, &r.Devices) }

// debit takes amount of res off the row's free account; credit gives it
// back.
func (r *Registration) debit(res Resource, amount uint64) {
	moveFree(res, &r.IdleBytes, &r.Devices, -int64(amount))
}
func (r *Registration) credit(res Resource, amount uint64) {
	moveFree(res, &r.IdleBytes, &r.Devices, int64(amount))
}

// freeOf and moveFree read and move one resource in an (idle bytes,
// device units) account, the shape RRT rows and rack registry rows
// share. Negative device counts read as none free, and a resource the
// MN does not broker has none.
func freeOf(res Resource, idle uint64, devs *Units) uint64 {
	switch {
	case res == Memory:
		return idle
	case res.device():
		return uint64(max(devs[res], 0))
	}
	return 0
}

func moveFree(res Resource, idle *uint64, devs *Units, delta int64) {
	switch {
	case res == Memory:
		*idle += uint64(delta)
	case res.device():
		devs[res] += int(delta)
	}
}

// Allocation is one row of the Resource Allocation Table. Its Tags are
// the granted request's, copied whole.
type Allocation struct {
	ID            int
	Kind          Resource // memory, or the class of a one-unit device lease
	Donor         fabric.NodeID
	Recipient     fabric.NodeID
	DonorBase     uint64
	RecipientBase uint64
	Size          uint64
	At            sim.Time

	// Deleg is the root MN's delegation id when this row backs a lease
	// delegated from another rack (the recipient is outside this sub-MN's
	// rack); 0 for ordinary local grants.
	Deleg int

	Tags

	// held counts the re-placement walks holding the row across their
	// blocking calls (see replace). A free hands a row back to the MN's
	// list only when no walk holds it.
	held int
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

	// The MN's record lists. rows recycles RAT rows: a free hands its
	// row back unless a re-placement walk holds it. regions recycles the
	// records the MN's region calls to donor agents carry (see
	// regionReq). cands recycles donor walks' candidate slices: walks
	// interleave while a grant blocks in its handshakes, so each takes
	// one of its own.
	rows    freeList[Allocation]
	regions freeList[regionReq]
	cands   [][]*Registration

	// Policy orders donor candidates (see PolicyByName); nil means the
	// prototype's distance-first policy.
	Policy *Policy
	// walk is the View the donor walks share (see donorCandidates).
	walk View

	// Admission is the tenancy admission controller's policy
	// (admission.go): per-class thresholds, consulted before every
	// tagged grant, with preemption on. nil (the default) disables
	// admission entirely — every pre-tenancy workload runs
	// byte-identically. Only a flat MN consults it: a sub-MN admits
	// without it, even if the field is set after StartRackBeat (which
	// refuses an MN that has one), since its preemption could revoke a
	// delegated row behind the root's back.
	Admission *tenancy.Config

	// HeartbeatTimeout marks a node dead when its reports stop.
	HeartbeatTimeout sim.Dur

	// SweepInterval is the recovery loop's scan period (see
	// StartRecovery); it defaults to half the heartbeat timeout.
	SweepInterval sim.Dur

	// Sharded-plane wiring, set by StartRackBeat (see shard.go). A
	// Monitor with hasUpstream set is a sub-MN: it owns its rack's leases
	// and heartbeats, escalates requests the rack cannot serve to the
	// root MN at upstream, and reports rack-level state there.
	upstream    fabric.NodeID
	hasUpstream bool
	rack        int
	// delegated maps this sub-MN's recipient-facing alloc ids onto root
	// delegation ids (plus the owning recipient, so frees enforce the
	// same ownership check as local rows) for leases backed by another
	// rack.
	delegated map[int]delegatedLease

	// recovery loop state.
	recoveryOn bool
	sweepIDs   []fabric.NodeID // the sweep's id buffer, between passes
	// out parks the control messages whose delivery was lost (outbox.go):
	// hot-returns owed to donors, among them the regions of donors
	// falsely declared dead, relocates and revokes owed to recipients,
	// and a sub-MN's frees and cancellations owed to the root.
	out outbox

	// Spare-region pool state (spare.go): per-donor pre-plugged regions
	// that let failover and migration skip the hot-plug latency.
	sparePoolOn  bool
	spareSize    uint64
	sparePer     int
	spares       map[fabric.NodeID][]spareRegion
	sparePending map[fabric.NodeID]int

	// Migration loop state (migrate.go).
	migrationOn bool

	// Stats counts runtime activity, including allocation retries caused
	// by stale RRT records (§5.3's handshake-and-retry).
	Stats Counters

	// OnLease, when set, receives the MN's recovery transitions
	// (events.go). It runs synchronously on the engine goroutine, must
	// not block, and costs no virtual time.
	OnLease func(LeaseEvent)
}

// grantTimeout bounds an MN's call into an agent or a sub-MN (hot-remove
// at grant and failover time, hot-return, relocate): a peer that dies
// while servicing a request must not wedge the MN forever. It
// comfortably exceeds one hot-plug operation plus a round trip.
func grantTimeout(p *sim.Params) sim.Dur { return 10*p.HotplugOp + sim.Millisecond }

// New starts a Monitor on the given endpoint.
func New(ep *transport.Endpoint, topo fabric.Topology) *Monitor {
	m := &Monitor{
		EP:               ep,
		Topo:             topo,
		rrt:              make(map[fabric.NodeID]*Registration),
		rat:              make(map[int]*Allocation),
		tst:              make(map[[2]fabric.NodeID]*LinkStatus),
		HeartbeatTimeout: 3 * sim.Second,
		delegated:        make(map[int]delegatedLease),
		spares:           make(map[fabric.NodeID][]spareRegion),
		sparePending:     make(map[fabric.NodeID]int),
	}
	m.out = outbox{ep: ep, stats: &m.Stats, incarnation: m.incarnationOf, reachable: m.reachable}
	ep.HandleInline(kindHeartbeat, m.onHeartbeat)
	ep.HandleCall(kindAlloc, m.onAlloc)
	ep.HandleCall(kindFree, m.onFree)
	ep.HandleCall(kindDelegate, m.onDelegate)
	ep.HandleCall(kindDelegateFree, m.onDelegateFree)
	ep.HandleCall(kindDelegateCancel, m.onDelegateCancel)
	return m
}

// Node reports the MN's node id.
func (m *Monitor) Node() fabric.NodeID { return m.EP.ID }

// Registered reports a copy of a node's RRT row. Its device counts are
// values, so the caller may hold the row across MN activity.
func (m *Monitor) Registered(id fabric.NodeID) (Registration, bool) {
	r, ok := m.rrt[id]
	if !ok {
		return Registration{}, false
	}
	return *r, true
}

// Registrations returns copies of the live RRT rows, as Registered
// does, ordered by node id — the donor-population snapshot
// observability surfaces export.
func (m *Monitor) Registrations() []Registration {
	ids := make([]fabric.NodeID, 0, len(m.rrt))
	for id := range m.rrt {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Registration, 0, len(ids))
	for _, id := range ids {
		out = append(out, *m.rrt[id])
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
// declared dead clears the death latch (the next sweep then settles any
// hot-returns owed from falsely re-placed leases), while an incarnation
// bump flags the node for recovery even though it never missed enough
// beats.
func (m *Monitor) onHeartbeat(_ fabric.NodeID, req any) (any, int) {
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
		m.Stats.add(statRecoverRebootsSeen, 1)
	}
	if r.Dead {
		r.Dead = false
		m.Stats.add(statRecoverReappeared, 1)
	}
	r.IdleBytes = hb.IdleBytes
	r.Devices, r.advertised = hb.Devices, hb.Devices
	if hb.Devices != (Units{}) {
		// Agents advertise installed device counts, not free ones (they
		// don't know which units the MN has leased out). Re-debit the units
		// on loan so a heartbeat cannot resurrect one — the device analogue
		// of IdleBytes, which agents do track.
		r.Devices.sub(&r.leased)
	}
	now := m.EP.Eng.Now()
	r.LastBeat = now
	r.Beats++
	for i, lp := range hb.Links {
		s := m.linkRow(r, i, lp.Peer)
		s.Up = lp.Up
		s.LastSeen = now
		if lp.HasUtil {
			// Both endpoints may sample the same link; keep the freshest
			// report (last writer wins — reports carry the same window
			// semantics either way).
			s.Util = lp.Util
			s.HasUtil = true
		}
	}
	hb.folded = true
	m.Stats.add(statHeartbeats, 1)
	return &ack{}, 8
}

// linkRow returns the TST row of probe i of r's node, the link to peer:
// the row r cached for probe i on an earlier beat when it is that
// link's, else the TST's row for the pair, made if new, which r then
// caches. A node's probes come in the same order every beat, so a beat
// folds its links without a map lookup.
func (m *Monitor) linkRow(r *Registration, i int, peer fabric.NodeID) *LinkStatus {
	key := linkKey(r.Node, peer)
	if i < len(r.links) {
		if s := r.links[i]; s.A == key[0] && s.B == key[1] {
			return s
		}
	}
	s, ok := m.tst[key]
	if !ok {
		s = &LinkStatus{A: key[0], B: key[1]}
		m.tst[key] = s
	}
	if i < len(r.links) {
		r.links[i] = s
	} else {
		r.links = append(r.links, s)
	}
	return s
}

// The RAT helpers are the one place that files, drops or re-places a RAT
// row. Each keeps the donor's count of leased device units (leased),
// which a heartbeat re-debits without walking the RAT. Every row's donor
// has an RRT row: grants and re-placements pick donors from the RRT,
// and no row ever leaves it.

// addRow files a new row.
func (m *Monitor) addRow(a *Allocation) {
	m.rat[a.ID] = a
	m.countLeased(a, 1)
}

// dropRow removes a row; dropping one that is no longer live does
// nothing.
func (m *Monitor) dropRow(a *Allocation) {
	if m.rat[a.ID] != a {
		return
	}
	delete(m.rat, a.ID)
	m.countLeased(a, -1)
}

// moveRow re-places a row on donor at base, as of now.
func (m *Monitor) moveRow(a *Allocation, donor fabric.NodeID, base uint64) {
	m.countLeased(a, -1)
	a.Donor, a.DonorBase, a.At = donor, base, m.EP.Eng.Now()
	m.countLeased(a, 1)
}

// countLeased moves the count of a device row's class at its donor by
// delta. Memory rows are not counted.
func (m *Monitor) countLeased(a *Allocation, delta int) {
	if a.Kind == Memory {
		return
	}
	if r, ok := m.rrt[a.Donor]; ok {
		r.leased[a.Kind] += delta
	}
}

// AuditDevices checks the count of leased device units each RRT row
// keeps, which its heartbeats re-debit, against a walk of the RAT: a
// donor's count of each device class must equal its live rows of that
// class. It names the first donor, in id order, whose count differs,
// and returns nil when none does.
func (m *Monitor) AuditDevices() error {
	rows := make(map[fabric.NodeID]Units)
	for _, a := range m.rat {
		if a.Kind == Memory {
			continue
		}
		u := rows[a.Donor]
		u[a.Kind]++
		rows[a.Donor] = u
	}
	for _, id := range slices.Sorted(maps.Keys(m.rrt)) {
		if leased := m.rrt[id].leased; leased != rows[id] {
			return fmt.Errorf("monitor: node %v counts %v device units on loan, its RAT rows %v", id, leased, rows[id])
		}
		delete(rows, id)
	}
	if len(rows) > 0 {
		return fmt.Errorf("monitor: device rows by donor %v name donors with no RRT row", rows)
	}
	return nil
}

// donorCandidates collects live donors and orders them with the MN's
// configured policy, else the prototype default (distance only, §5.3).
// A policy that reads loads or telemetry sees the current View. The
// walk gets a candidate slice of its own, from the MN's list, since a
// grant blocks in its handshakes while other walks run; it hands the
// slice back with doneCandidates.
func (m *Monitor) donorCandidates(requester fabric.NodeID) []*Registration {
	var cands []*Registration
	if n := len(m.cands); n > 0 {
		cands = m.cands[n-1]
		m.cands = m.cands[:n-1]
	} else {
		cands = make([]*Registration, 0, len(m.rrt))
	}
	for _, r := range m.rrt {
		if r.Node == requester || !m.NodeAlive(r.Node) {
			continue
		}
		cands = append(cands, r)
	}
	v := &m.walk
	if p := m.Policy; p != nil && p.view {
		m.fill(v)
	} else {
		*v = View{Topo: m.Topo}
	}
	m.Policy.order(v, requester, cands)
	return cands
}

// doneCandidates hands a walk's candidate slice back to the MN's list.
func (m *Monitor) doneCandidates(cands []*Registration) {
	clear(cands)
	m.cands = append(m.cands, cands[:0])
}

// freeList recycles one kind of MN record. When a record may go back
// is the owner's rule: see regionReq and Allocation.held.
type freeList[T any] struct{ free []*T }

func (l *freeList[T]) get() *T {
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	r := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return r
}

func (l *freeList[T]) put(r *T) { l.free = append(l.free, r) }

// onAlloc services a request for an amount of one resource: a memory
// request for no bytes or for bytes that are not whole pages is
// declined at once; then admission
// for class-tagged requests on a flat MN, the local donor walk first
// (unless the scope hint forbids it), then — on a sub-MN — escalation
// to the root MN when the rack is starved or the request asked for a
// remote rack outright. The answer goes into the caller's record (see
// AllocCall), and its wire size is the resource's.
func (m *Monitor) onAlloc(p *sim.Proc, from fabric.NodeID, req any) (any, int) {
	c := req.(*AllocCall)
	r := &c.Req
	wire := pick(r.Res, 64, 32)
	// No donor hot-removes no bytes, or bytes that are not whole pages:
	// each agent would decline, and the walk would take every donor's
	// idle bytes for stale. Decline on arrival, before it can queue or
	// preempt.
	if r.Res == Memory && (r.Size == 0 || r.Size%uint64(m.EP.P.PageBytes) != 0) {
		m.Stats.add(statAllocMalformed, 1)
		c.Resp = AllocResp{}
		return c, wire
	}
	// Tagged requests pass the admission controller first: it may admit
	// the full amount, shrink it (degraded grant), hold the request for a
	// bounded wait, preempt Preemptible leases for a higher class, or
	// reject outright. Untagged requests (Class zero) bypass it, and so
	// does every request to a sub-MN.
	size := r.amount()
	if m.Admission != nil && !m.hasUpstream && r.Class != tenancy.ClassNone {
		g, rejected := m.admit(p, from, r.Res, size, r.Class)
		if rejected {
			m.Stats.add(statAdmitRejected, 1)
			c.Resp = AllocResp{Rejected: true}
			return c, wire
		}
		size = g
	}
	if r.Scope != ScopeRemoteRack {
		if a, ok := m.grant(p, from, r, size, 0); ok {
			m.Stats.add(r.Res.allocStat(), 1)
			c.Resp = r.answer(AllocResp{OK: true, AllocID: a.ID, Donor: a.Donor, DonorBase: a.DonorBase}, size)
			return c, wire
		}
	}
	if m.hasUpstream && r.Scope != ScopeLocalRack {
		if resp, ok := m.escalate(p, from, r); ok {
			c.Resp = resp
			return c, wire
		}
	}
	m.Stats.add(statAllocFailures, 1)
	c.Resp = r.answer(AllocResp{}, size)
	return c, wire
}

// answer completes resp, r's answer for size, flagging a size admission
// degraded.
func (r *AllocReq) answer(resp AllocResp, size uint64) AllocResp {
	if size != r.amount() {
		resp.Granted = size
	}
	return resp
}

// grant runs the donor walk for amount of r's resource on recipient's
// behalf: find a live candidate with that much free, run the resource's
// donor handshake, and record the RAT row with r's tags. Only the
// handshake differs by resource: memory asks the donor's agent to
// hot-remove and export the region at r's window (hotRemove), a device
// unit is a table debit and its row carries no window. deleg tags the
// row with a root delegation id when the grant backs a cross-rack
// lease.
func (m *Monitor) grant(p *sim.Proc, recipient fabric.NodeID, r *AllocReq, amount uint64, deleg int) (*Allocation, bool) {
	cands := m.donorCandidates(recipient)
	defer m.doneCandidates(cands)
	for _, cand := range cands {
		if cand.free(r.Res) < amount {
			continue
		}
		// Cross-check liveness at grant time: the candidate list was
		// drawn before any blocking call, and a donor that died while an
		// earlier candidate was being tried would get a doomed lease.
		if !m.NodeAlive(cand.Node) {
			m.Stats.add(statAllocDeadSkips, 1)
			continue
		}
		var donorBase, window uint64
		if r.Res == Memory {
			base, ok := m.hotRemove(p, cand, recipient, r.WindowBase, amount, false)
			if !ok {
				continue
			}
			donorBase, window = base, r.WindowBase
		}
		a := m.rows.get()
		*a = Allocation{
			ID: m.nextAllocID, Kind: r.Res, Donor: cand.Node, Recipient: recipient,
			DonorBase: donorBase, RecipientBase: window,
			Size: amount, At: m.EP.Eng.Now(), Deleg: deleg, Tags: r.Tags,
		}
		m.nextAllocID++
		m.addRow(a)
		cand.debit(r.Res, amount)
		if r.Res == Memory {
			m.topUpSpares()
		}
		return a, true
	}
	return nil, false
}

// hotRemove is memory's donor handshake: ask cand's agent to hot-remove
// size bytes and export them to recipient's window at window. RRT
// records can be stale, so a donor that declines is marked drained and
// the walk retries the next candidate (handshake-and-retry, §5.3). The
// grant walk counts its timeouts and retries under alloc.*,
// re-placement (recovery) under recover.*.
func (m *Monitor) hotRemove(p *sim.Proc, cand *Registration, recipient fabric.NodeID, window, size uint64, recovery bool) (uint64, bool) {
	inc := m.incarnationOf(cand.Node)
	reg := m.regions.get()
	*reg = regionReq{Recipient: recipient, RecipientBase: window, Size: size}
	if _, ok := m.EP.CallTimeout(p, cand.Node, kindHotRemove, 64, reg, grantTimeout(m.EP.P)); !ok {
		// The donor died mid-handshake (its agent never answered);
		// without the timeout this request would wedge the MN forever.
		// The agent may still be sleeping in the hot-plug with reg, so
		// reg is left to the GC.
		m.lostRegion(cand, reg, inc, either(recovery, statRecoverGrantTimeouts, statAllocGrantTimeouts))
		return 0, false
	}
	base, ok := reg.Base, reg.OK
	m.regions.put(reg)
	if !ok {
		// Stale RRT record; mark what we learned and retry.
		m.Stats.add(either(recovery, statRecoverRetries, statAllocRetries), 1)
		cand.IdleBytes = 0
		return 0, false
	}
	return base, true
}

// lostRegion handles a hot-remove or spare attach to cand whose answer
// never came. We cannot know whether the donor exported the region and
// the answer was lost, so park a cancellation (a hot-return naming only
// reg's window, which the agent resolves itself) for when the donor is
// reachable again, and mark it drained.
func (m *Monitor) lostRegion(cand *Registration, reg *regionReq, inc int64, lost counter) {
	m.Stats.add(lost, 1)
	m.out.park(m.giveBack(cand.Node, &regionReq{Recipient: reg.Recipient, RecipientBase: reg.RecipientBase}), inc)
	cand.IdleBytes = 0
}

// onFree tears an allocation down by its row's resource, handing the
// backing back to its donor — or, for a lease delegated from another
// rack, forwarding the release up to the root MN, which owns the
// donor-rack indirection. The row goes back on the MN's list once its
// backing is released, unless a re-placement walk holds it.
func (m *Monitor) onFree(p *sim.Proc, from fabric.NodeID, req any) (any, int) {
	f := req.(*FreeReq)
	if ref, ok := m.delegated[f.AllocID]; ok {
		if ref.recipient != from {
			return &ack{}, 8
		}
		delete(m.delegated, f.AllocID)
		// Lost to the spine, the free parks: a dropped free must not leak
		// the delegation and its donor-rack backing.
		if !m.out.send(p, letter{
			to: m.upstream, kind: kindRackFree, size: 32, req: &FreeReq{AllocID: ref.deleg},
			timeout: 3 * grantTimeout(m.EP.P), retried: statFreeUpstreamRetried,
		}) {
			m.Stats.add(statFreeUpstreamLost, 1)
		}
		m.Stats.add(statFreeDelegated, 1)
		return &ack{}, 8
	}
	a, ok := m.rat[f.AllocID]
	if !ok || a.Recipient != from {
		return &ack{}, 8
	}
	m.dropRow(a)
	m.releaseBacking(p, a)
	m.Stats.add(pick(a.Kind, statFreeMemory, statFreeDevice), 1)
	if a.held == 0 {
		m.rows.put(a)
	}
	return &ack{}, 8
}

// releaseBacking hands a torn-down row's backing back to its donor by
// the row's resource and restores the RRT account: memory hot-returns
// the region through the donor's agent (parked when the donor is
// unreachable, to settle if it reappears un-rebooted), a device unit is
// a table credit.
func (m *Monitor) releaseBacking(p *sim.Proc, a *Allocation) {
	if a.Kind == Memory && !m.sendBack(p, a.Donor, a, a.DonorBase) {
		m.Stats.add(statFreeDonorUnreachable, 1)
	}
	if r, ok := m.rrt[a.Donor]; ok {
		r.credit(a.Kind, a.Size)
	}
}

// sendBack hot-returns the region at base backing a's window to donor
// through the outbox, and reports whether the letter was delivered. Its
// record goes back on the MN's list then; a parked letter keeps it.
func (m *Monitor) sendBack(p *sim.Proc, donor fabric.NodeID, a *Allocation, base uint64) bool {
	ret := m.region(a, base)
	if !m.out.send(p, m.giveBack(donor, ret)) {
		return false
	}
	m.regions.put(ret)
	return true
}

// giveBack is the letter handing the region ret names back to donor.
func (m *Monitor) giveBack(donor fabric.NodeID, ret *regionReq) letter {
	return letter{
		to: donor, kind: kindHotReturn, size: 64, req: ret,
		timeout: grantTimeout(m.EP.P), retried: statRecoverOrphanReturns,
	}
}
