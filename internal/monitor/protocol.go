// Package monitor implements Venice's resource-management runtime
// (§5.3): the Monitor Node with its three tables — the Resource
// Registration Table (RRT) of available resources, the Resource
// Allocation Table (RAT) of live allocations, and the Topology Status
// Table (TST) of fabric link health — plus the per-node agent daemon
// that heartbeats availability and services hot-remove requests.
//
// The runtime extends the paper's prototype in two directions. First,
// recovery (recovery.go): heartbeat-incarnation failure detection, the
// MN's sweep loop, and lease failover with recipient-side in-flight
// replay. Second, scale (shard.go): on multi-rack fabrics the plane
// shards into one sub-MN per rack plus a root MN that sees only
// rack-granularity state — sub-MNs escalate requests their rack cannot
// serve, and the root elects donor racks and delegates grants. Like the
// prototype, the sharded plane leaves failure aside: recovery,
// migration and admission run on a flat MN only. Every MN holds one
// outbox (outbox.go) for the control messages that must land eventually
// — the hot-return a falsely dead donor is owed among them — parking a
// lost one and redelivering it on a later pass.
package monitor

import (
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/transport"
)

// RPC kinds exchanged between agents and the Monitor Node.
var (
	kindHeartbeat = transport.NewKind("mn.heartbeat")
	kindAlloc     = transport.NewKind("mn.alloc")
	kindFree      = transport.NewKind("mn.free")

	kindHotRemove   = transport.NewKind("agent.hotremove")
	kindHotReturn   = transport.NewKind("agent.hotreturn")
	kindRelocate    = transport.NewKind("agent.relocate")
	kindRevoke      = transport.NewKind("agent.revoke")
	kindSpareCarve  = transport.NewKind("agent.sparecarve")
	kindSpareAttach = transport.NewKind("agent.spareattach")

	// Sharded-plane RPCs (see shard.go): sub-MN <-> root MN, and the
	// root's delegation calls into donor-rack sub-MNs.
	kindRackBeat       = transport.NewKind("root.rackbeat")
	kindRackBorrow     = transport.NewKind("root.borrow")
	kindRackFree       = transport.NewKind("root.free")
	kindBorrowCancel   = transport.NewKind("root.borrowcancel")
	kindDelegate       = transport.NewKind("sub.delegate")
	kindDelegateFree   = transport.NewKind("sub.delegatefree")
	kindDelegateCancel = transport.NewKind("sub.delegatecancel")
)

// Resource is one dimension of the MN's allocation vector: memory,
// granted in bytes, or one shareable device class (§5.2), granted in
// whole units. Every request asks for an amount of exactly one.
type Resource int

// The resources the MN brokers.
const (
	Memory Resource = iota
	DevAccelerator
	DevNIC

	numResources // the length of Units
)

// device reports whether r is a device class the MN brokers.
func (r Resource) device() bool { return r > Memory && r < numResources }

// Units counts device units by class, indexed by Resource: what an
// agent advertises, what its heartbeat carries, and what an RRT or rack
// registry row has free or on loan. Memory's entry is unused. Units is
// a value, so a report carries the counts as of its send.
type Units [numResources]int

// sub takes v's counts off u's.
func (u *Units) sub(v *Units) {
	for i := range u {
		u[i] -= v[i]
	}
}

// listed returns u's count of each class advertised names with a
// nonzero count, by class, or nil when it names none: the device counts
// a registry row lists.
func (u *Units) listed(advertised *Units) map[Resource]int {
	var m map[Resource]int
	for res, n := range advertised {
		if n == 0 {
			continue
		}
		if m == nil {
			m = make(map[Resource]int)
		}
		m[Resource(res)] = u[res]
	}
	return m
}

// String names the resource.
func (r Resource) String() string {
	switch r {
	case Memory:
		return "memory"
	case DevAccelerator:
		return "accelerator"
	case DevNIC:
		return "nic"
	default:
		return "unknown"
	}
}

// MarshalText renders the resource by name, so JSON rows (and maps
// keyed by resource) read "memory", "accelerator" or "nic".
func (r Resource) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// pick returns mem for memory and dev for every device class — the
// per-resource counters and wire sizes, spelled once.
func pick[T any](r Resource, mem, dev T) T {
	if r == Memory {
		return mem
	}
	return dev
}

// either returns yes when c holds and no otherwise: pick's twin for
// choices that are not by resource.
func either[T any](c bool, yes, no T) T {
	if c {
		return yes
	}
	return no
}

// allocStat is the counter of r's local grants.
func (r Resource) allocStat() counter {
	switch r {
	case Memory:
		return statAllocMemory
	case DevAccelerator:
		return statAllocAccelerator
	case DevNIC:
		return statAllocNIC
	default:
		return statAllocUnknown
	}
}

// LinkProbe is one link's health as observed by an agent. When the
// agent's telemetry plane is on it also carries the link's windowed
// utilization (the busier direction) since the previous heartbeat;
// HasUtil distinguishes a genuinely idle window from telemetry-off.
type LinkProbe struct {
	Peer fabric.NodeID
	Util float64
	// The flags come last so a probe packs into 24 bytes, which keeps a
	// fresh report's probe slice a size class below its Devices array.
	Up      bool
	HasUtil bool
}

// Heartbeat is the periodic agent report that feeds the RRT and TST.
type Heartbeat struct {
	Node      fabric.NodeID
	IdleBytes uint64
	Devices   Units
	Links     []LinkProbe
	// Incarnation counts the node's reboots. The MN compares it against
	// the RRT's recorded value to tell a crash-and-reboot apart from a
	// stretch of lost heartbeats: a higher incarnation means the node's
	// memory (and with it every donation it was serving) is gone, even if
	// the outage was shorter than the heartbeat timeout.
	Incarnation int64

	// folded marks a report the MN has folded into its tables, or one a
	// crashed node's switch dropped (Unread): nobody reads it any more,
	// and the agent may refill it.
	folded bool
}

// Unread marks a report whose beat a crashed node's switch dropped as
// done with, as the MN's fold does, so the next beat refills it. The
// transport's drop sink calls it.
func (hb *Heartbeat) Unread() { hb.folded = true }

// AllocScope is a placement hint on memory requests — the NUMA-style
// policy knob the hierarchical plane adds. The zero value preserves the
// flat-cluster behavior exactly.
type AllocScope int

const (
	// ScopeAny places wherever the plane finds memory: the sub-MN's own
	// rack first, escalating to the root MN only when the rack is
	// starved.
	ScopeAny AllocScope = iota
	// ScopeLocalRack never escalates: the request fails if the rack
	// cannot serve it.
	ScopeLocalRack
	// ScopeRemoteRack skips the local walk and asks the root MN for a
	// donor in another rack (the cross-rack traffic knob the scale
	// scenarios sweep).
	ScopeRemoteRack
)

// Tags are a request's passive annotations: no donor walk reads them to
// place a grant, and the request's wire size is fixed. Every hop
// forwards them and every RAT row keeps them, whole.
type Tags struct {
	// Latency marks a memory lease latency-sensitive: the migration loop
	// relieves its path by moving bulk leases away, and never retargets
	// the lease itself (a retarget-and-replay pause is exactly what the
	// class forbids).
	Latency bool
	// Trace is the requester's lease trace id. Every lifecycle event for
	// the lease (grant, free, failover, migration, revocation) carries
	// it, so observability layers can chain them into one span history.
	Trace uint64
	// Tenant/Class identify the requesting tenant for the admission
	// controller (tenancy.Config on the MN), and Class steers its
	// preemption scan, whose victims are Preemptible rows. The zero Class
	// marks an untagged request, which admission never gates.
	Tenant uint64
	Class  tenancy.Class
}

// AllocReq asks the MN for an amount of one resource: Size bytes of
// memory, or one unit of a device class (Size is ignored). A memory
// requester pre-selects the local address window the borrowed region
// will be hot-plugged at, so the donor can install the matching
// translation; the window is also the grant's recipient-unique key.
type AllocReq struct {
	Res        Resource
	Size       uint64
	WindowBase uint64
	// Scope is the hierarchical placement hint; flat clusters ignore it
	// except ScopeRemoteRack, which fails (there is no other rack).
	Scope AllocScope
	Tags
}

// amount is the request's size in its resource's unit.
func (r *AllocReq) amount() uint64 { return pick(r.Res, r.Size, 1) }

// AllocResp answers an AllocReq, and every hop that forwards one: a
// root MN's answer names the delegation id in AllocID, a donor-rack
// sub-MN's its own RAT row id. A decline carries no text: the recipient
// formats its error from its request and what the answer names.
type AllocResp struct {
	OK        bool
	AllocID   int
	Donor     fabric.NodeID
	DonorBase uint64
	// Granted is the degraded grant size when the admission controller
	// shrank the window (tenancy.Degrade); 0 means "as requested". A
	// declined request that admission degraded names the degraded size,
	// which no donor could back.
	Granted uint64
	// Rejected marks an admission-controller rejection: the pool has
	// capacity policy says this class may not take. Unlike an ordinary
	// "no donor" decline it is not retryable — the caller surfaces
	// core.ErrAdmissionRejected.
	Rejected bool
}

// FreeReq tears an allocation down by id. The RPC kind says whose id it
// carries: mn.free a recipient-facing alloc id, root.free and
// sub.delegatecancel a root delegation id, sub.delegatefree the donor
// rack's own RAT row id.
type FreeReq struct {
	AllocID int
}

// AllocCall is one grant call's record, owned by its caller: the caller
// fills Req, and the MN's handler reads the request through the record
// and writes its answer into Resp, so the call boxes nothing either
// way. The record is the caller's again once Alloc has returned true.
// After a timeout the MN may still hold it, and write its answer into
// it later, so the caller must not reuse it.
type AllocCall struct {
	Req  AllocReq
	Resp AllocResp
}

// Alloc is the client-side grant call (step 2 of Fig. 2 for memory): it
// sends c.Req to the MN and reports whether the answer, now in c.Resp,
// came. The wire sizes are per resource: a memory request and its
// answer carry a window and a donor base (64 B each way), a device
// request names only its class (16 B) and its answer only the donor
// (32 B). With timeout > 0 the call aborts after that much virtual time
// and reports false (an unreachable or wedged MN must not park the
// requester forever); otherwise it waits indefinitely.
func Alloc(p *sim.Proc, ep *transport.Endpoint, mn fabric.NodeID, c *AllocCall, timeout sim.Dur) bool {
	_, ok := ep.CallTimeout(p, mn, kindAlloc, pick(c.Req.Res, 64, 16), c, timeout)
	return ok
}

// Free releases an allocation of any resource by the id f names. It
// waits for the MN's answer, so f is the caller's again when Free
// returns.
func Free(p *sim.Proc, ep *transport.Endpoint, mn fabric.NodeID, f *FreeReq) {
	ep.CallTimeout(p, mn, kindFree, 16, f, 0)
}

// regionReq names one region to a donor's agent: the recipient window
// it backs (Recipient, RecipientBase), its donor-local Base and its
// Size. Each call fills what it knows:
//   - agent.hotremove: the window and Size; the agent picks Base.
//   - agent.sparecarve: Size alone. The agent hot-removes the region
//     now, off any grant's critical path, and parks it unexported.
//   - agent.spareattach: all four. The parked region at Base is only
//     exported, with no hot-plug sleep.
//   - agent.hotreturn: all four. With Size zero it names the window
//     alone, and the agent resolves the region from its own export
//     bookkeeping: the cancellation the MN sends when a hot-remove's or
//     attach's answer was lost and it cannot know whether (or where)
//     the donor exported the region.
//
// The agent answers a hot-remove, spare carve or spare attach in the
// record itself: OK, and the Base a hot-remove or carve picked. A
// declined attach means the agent no longer holds the parked region
// (e.g. it rebooted since the carve), and the MN falls back to an
// ordinary hot-remove.
//
// The MN takes its records from one list (Monitor.regions). A record
// goes back there in the event its answer is read in, or in which the
// hot-return letter carrying it is delivered; one whose call timed out,
// or that a parked letter holds, is left to the GC, since the agent may
// still read or write it.
type regionReq struct {
	Recipient     fabric.NodeID
	RecipientBase uint64
	Base          uint64
	Size          uint64
	OK            bool
}

// key is the window the region is exported to.
func (r *regionReq) key() windowKey {
	return windowKey{recipient: r.Recipient, base: r.RecipientBase}
}

// region names, in a record from the MN's list, the region at base that
// backs a's window.
func (m *Monitor) region(a *Allocation, base uint64) *regionReq {
	r := m.regions.get()
	*r = regionReq{Recipient: a.Recipient, RecipientBase: a.RecipientBase, Base: base, Size: a.Size}
	return r
}

// windowKey identifies one grant by its recipient-unique window (or, for
// a delegated device, its pre-minted alloc id): the key donor agents
// file exports under, and escalation cancellations resolve by.
type windowKey struct {
	recipient fabric.NodeID
	base      uint64
}

// relocateReq is the MN->recipient-agent notice that a lease's donor has
// been replaced: the agent retargets the window's RAMT entry at the new
// donor and replays every in-flight access that was addressed to the old
// one — the recovery half of §5.3's runtime, which the paper's prototype
// leaves to future work.
type relocateReq struct {
	AllocID       int
	RecipientBase uint64
	Size          uint64
	OldDonor      fabric.NodeID
	NewDonor      fabric.NodeID
	NewDonorBase  uint64
}

// relocateResp acknowledges a relocation.
type relocateResp struct {
	OK bool
}

// revokeReq is the MN->recipient-agent notice that a lease is gone for
// good: the donor died and no surviving candidate could back the window.
// The agent marks the window dead so blocked accesses unwedge and future
// ones fail fast instead of parking forever.
type revokeReq struct {
	AllocID       int
	RecipientBase uint64
	Size          uint64
}

// ack is an empty RPC response.
type ack struct{}

// rackBeat is a sub-MN's periodic rack-level report to the root MN: the
// hierarchical analogue of the agent heartbeat, aggregated one level up
// so the root scales with racks, not nodes.
type rackBeat struct {
	Rack      int
	Sub       fabric.NodeID
	IdleBytes uint64 // sum of the rack's live RRT idle bytes
	Live      int    // live nodes in the rack
	// Devices aggregates the rack's free device units per kind (live RRT
	// rows with some free only), so the root can elect donor racks for
	// device borrows the same way IdleBytes steers memory borrows.
	Devices Units
}

// rackBorrowReq is a sub-MN's escalation to the root MN: its rack
// cannot (or, under ScopeRemoteRack, must not) back the recipient's
// request, so the root elects a donor rack by its free amount of Res
// and delegates the grant. The request rides whole, with Size set to
// its amount (1 unit for a device) and WindowBase to the
// borrow's recipient-unique key: the window for memory and, for a
// device (which has no window), the sub's pre-minted recipient-facing
// alloc id, so cancellations stay key-resolvable.
type rackBorrowReq struct {
	Rack      int // requester's rack, excluded from donor election
	Recipient fabric.NodeID
	AllocReq
}

// borrowCancelReq is a sub-MN's cancellation of an escalation whose
// response it never saw: if the borrow did complete at the root, the
// orphaned delegation (identified by recipient + window, since the sub
// holds no delegation id) must be torn down — the cross-rack analogue
// of the flat plane's key-resolved hot-return cancellation.
type borrowCancelReq struct {
	Recipient     fabric.NodeID
	RecipientBase uint64
	// Res narrows the key match to delegations of the same resource: a
	// device key is a pre-minted alloc id, not a window.
	Res Resource
}

// delegateReq is the root MN's grant request to a donor rack's sub-MN:
// perform the normal donor walk for a recipient outside the rack, on
// the request a borrow forwarded. The sub answers with an AllocResp
// naming its RAT row.
type delegateReq struct {
	DelegID   int
	Recipient fabric.NodeID
	AllocReq
}
