// Package monitor implements Venice's resource-management runtime
// (§5.3): the Monitor Node with its three tables — the Resource
// Registration Table (RRT) of available resources, the Resource
// Allocation Table (RAT) of live allocations, and the Topology Status
// Table (TST) of fabric link health — plus the per-node agent daemon
// that heartbeats availability and services hot-remove requests.
//
// The runtime extends the paper's prototype in two directions. First,
// recovery (recovery.go): heartbeat-incarnation failure detection, MN
// sweep loops, lease failover with recipient-side in-flight replay, and
// orphan hot-returns after false positives. Second, scale (shard.go): on
// multi-rack fabrics the plane shards into one sub-MN per rack plus a
// root MN that sees only rack-granularity state — sub-MNs escalate
// requests their rack cannot serve, the root elects donor racks and
// delegates grants, and recovery composes across the delegation
// boundary (including re-delegating a whole rack's donated leases when
// its sub-MN dies).
package monitor

import (
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/transport"
)

// RPC kinds exchanged between agents and the Monitor Node.
const (
	kindHeartbeat = "mn.heartbeat"
	kindAlloc     = "mn.alloc"
	kindFree      = "mn.free"

	kindHotRemove   = "agent.hotremove"
	kindHotReturn   = "agent.hotreturn"
	kindRelocate    = "agent.relocate"
	kindRevoke      = "agent.revoke"
	kindSpareCarve  = "agent.sparecarve"
	kindSpareAttach = "agent.spareattach"

	// Sharded-plane RPCs (see shard.go): sub-MN <-> root MN, and the
	// root's delegation calls into donor-rack sub-MNs.
	kindRackBeat       = "root.rackbeat"
	kindRackBorrow     = "root.borrow"
	kindRackFree       = "root.free"
	kindBorrowCancel   = "root.borrowcancel"
	kindNodeDown       = "root.nodedown"
	kindDelegateMoved  = "root.delegatemoved"
	kindDelegate       = "sub.delegate"
	kindDelegateFree   = "sub.delegatefree"
	kindDelegateCancel = "sub.delegatecancel"
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
)

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
// per-resource scoreboard keys, wire sizes and decline texts, spelled
// once. A decline text picks between two formats over the same
// arguments, each naming the ones it uses by index.
func pick[T any](r Resource, mem, dev T) T {
	if r == Memory {
		return mem
	}
	return dev
}

// allocKey is the scoreboard key counting r's local grants.
func (r Resource) allocKey() string {
	switch r {
	case Memory:
		return "alloc.memory"
	case DevAccelerator:
		return "alloc.accelerator"
	case DevNIC:
		return "alloc.nic"
	default:
		return "alloc.unknown"
	}
}

// LinkProbe is one link's health as observed by an agent. When the
// agent's telemetry plane is on it also carries the link's windowed
// utilization (the busier direction) since the previous heartbeat;
// HasUtil distinguishes a genuinely idle window from telemetry-off.
type LinkProbe struct {
	Peer    fabric.NodeID
	Up      bool
	Util    float64
	HasUtil bool
}

// Heartbeat is the periodic agent report that feeds the RRT and TST.
type Heartbeat struct {
	Node      fabric.NodeID
	IdleBytes uint64
	Devices   map[Resource]int
	Links     []LinkProbe
	// Incarnation counts the node's reboots. The MN compares it against
	// the RRT's recorded value to tell a crash-and-reboot apart from a
	// stretch of lost heartbeats: a higher incarnation means the node's
	// memory (and with it every donation it was serving) is gone, even if
	// the outage was shorter than the heartbeat timeout.
	Incarnation int64
}

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
	// Policy names a registered placement policy to use for this request
	// instead of the MN's configured one; "" keeps the MN default.
	Policy string
	// Latency marks a memory lease latency-sensitive: the migration loop
	// relieves its path by moving bulk leases away, and never retargets
	// the lease itself.
	Latency bool
	// Trace is the requester's lease trace id; the MN stores it on the
	// allocation row so recovery and migration events announce the same
	// id the recipient's grant/release events carry. Purely passive —
	// it never steers placement, and the request's wire size is fixed.
	Trace uint64
	// Tenant/Class identify the requesting tenant for the admission
	// controller (tenancy.Config on the MN). The zero Class marks an
	// untagged request, which admission never gates — pre-tenancy
	// callers keep today's behavior exactly.
	Tenant uint64
	Class  tenancy.Class
}

// amount is the request's size in its resource's unit.
func (r *AllocReq) amount() uint64 { return pick(r.Res, r.Size, 1) }

// AllocResp answers an AllocReq.
type AllocResp struct {
	OK        bool
	Err       string
	AllocID   int
	Donor     fabric.NodeID
	DonorBase uint64
	// Granted is the degraded grant size when the admission controller
	// shrank the window (tenancy.Degrade); 0 means "as requested".
	Granted uint64
	// Rejected marks an admission-controller rejection: the pool has
	// capacity policy says this class may not take. Unlike an ordinary
	// "no donor" decline it is not retryable — the caller surfaces
	// core.ErrAdmissionRejected.
	Rejected bool
}

// FreeReq releases a previous allocation of any resource.
type FreeReq struct {
	AllocID int
}

// Alloc is the client-side grant call (step 2 of Fig. 2 for memory).
// The wire sizes are per resource: a memory request and its answer
// carry a window and a donor base (64 B each way), a device request
// names only its class (16 B) and its answer only the donor (32 B).
// With timeout > 0 the request aborts after that much virtual time and
// reports ok=false (an unreachable or wedged MN must not park the
// requester forever); otherwise it waits indefinitely.
func Alloc(p *sim.Proc, ep *transport.Endpoint, mn fabric.NodeID, req AllocReq, timeout sim.Dur) (*AllocResp, bool) {
	size := pick(req.Res, 64, 16)
	if timeout > 0 {
		raw, ok := ep.CallTimeout(p, mn, kindAlloc, size, &req, timeout)
		if !ok {
			return nil, false
		}
		return raw.(*AllocResp), true
	}
	return ep.Call(p, mn, kindAlloc, size, &req).(*AllocResp), true
}

// Free releases an allocation of any resource by id.
func Free(p *sim.Proc, ep *transport.Endpoint, mn fabric.NodeID, allocID int) {
	ep.Call(p, mn, kindFree, 16, &FreeReq{AllocID: allocID})
}

// hotRemoveReq is the MN->donor-agent request to donate memory.
type hotRemoveReq struct {
	Size          uint64
	Recipient     fabric.NodeID
	RecipientBase uint64
}

// hotRemoveResp is the donor agent's answer.
type hotRemoveResp struct {
	OK   bool
	Err  string
	Base uint64
}

// hotReturnReq is the MN->donor-agent request to take memory back. A
// zero Size asks the agent to resolve the region from its own export
// bookkeeping by (Recipient, RecipientBase) — the cancellation form the
// MN sends when a hot-remove's ACK was lost and it cannot know whether
// (or where) the donor carved the region.
type hotReturnReq struct {
	Recipient     fabric.NodeID
	RecipientBase uint64
	Base          uint64
	Size          uint64
}

// windowKey identifies one grant by its recipient-unique window (or, for
// a delegated device, its pre-minted alloc id): the key donor agents
// file exports under, and escalation cancellations resolve by.
type windowKey struct {
	recipient fabric.NodeID
	base      uint64
}

// spareCarveReq is the MN->donor-agent request to pre-plug a spare
// region: hot-remove Size bytes now — off any grant's critical path —
// and park them unexported, so a later failover or migration can attach
// the region without paying the hot-plug latency.
type spareCarveReq struct {
	Size uint64
}

// spareCarveResp is the donor agent's answer; Base identifies the
// parked region in later spareAttach requests.
type spareCarveResp struct {
	OK   bool
	Err  string
	Base uint64
}

// spareAttachReq is the MN->donor-agent request to export a parked
// spare region to a recipient. The region is already hot-removed, so
// the agent only installs the CRMA export — no hot-plug sleep.
type spareAttachReq struct {
	Base          uint64
	Size          uint64
	Recipient     fabric.NodeID
	RecipientBase uint64
}

// spareAttachResp is the donor agent's answer. !OK means the agent no
// longer holds the parked region (e.g. it rebooted since the carve);
// the MN falls back to an ordinary hot-remove.
type spareAttachResp struct {
	OK  bool
	Err string
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
	// rows only), so the root can elect donor racks for device borrows
	// the same way IdleBytes steers memory borrows. nil when the rack
	// advertises no devices, keeping device-free planes byte-identical.
	Devices map[Resource]int
	// MaxUtil aggregates the rack's telemetry one level up: the hottest
	// windowed link utilization any rack agent reported. HasUtil is false
	// until telemetry-enabled agents report, so the zero value keeps the
	// telemetry-off protocol byte-identical.
	MaxUtil float64
	HasUtil bool
}

// rackBorrowReq is a sub-MN's escalation to the root MN: its rack
// cannot (or, under ScopeRemoteRack, must not) back Size of Res (1 unit
// for a device), so the root elects a donor rack by its free amount of
// Res and delegates the grant. WindowBase is the borrow's
// recipient-unique key: the window for memory and, for a device (which
// has no window), the sub's pre-minted recipient-facing alloc id, so
// cancellations stay key-resolvable.
type rackBorrowReq struct {
	Rack       int // requester's rack, excluded from donor election
	Recipient  fabric.NodeID
	Res        Resource
	Size       uint64
	WindowBase uint64
	Policy     string        // per-request policy override, forwarded to the donor rack
	Latency    bool          // latency-sensitive class, forwarded to the donor rack
	Trace      uint64        // lease trace id, forwarded to the donor rack's RAT row
	Tenant     uint64        // requesting tenant, forwarded to the donor rack's RAT row
	Class      tenancy.Class // tenant priority class, forwarded for donor-rack admission
}

// rackBorrowResp answers a rackBorrowReq.
type rackBorrowResp struct {
	OK        bool
	Err       string
	DelegID   int
	Donor     fabric.NodeID
	DonorBase uint64
}

// rackFreeReq releases a delegated lease by root delegation id.
type rackFreeReq struct {
	DelegID int
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

// nodeDownReq is a sub-MN's notice to the root that its sweep declared
// a rack node dead. The root reclaims delegated leases that node held
// as a recipient — the cross-rack half of the recovery contract (the
// donor-side half stays with the donor rack's own sweep, which owns the
// RAT row).
type nodeDownReq struct {
	Rack int
	Node fabric.NodeID
}

// delegateMovedReq is a donor-rack sub-MN's notice that its recovery
// sweep changed (or revoked) a delegated lease's backing, keeping the
// root's delegation table truthful across the delegation boundary.
type delegateMovedReq struct {
	DelegID int
	Donor   fabric.NodeID
	Gone    bool // the sub revoked the lease outright
}

// delegateReq is the root MN's grant request to a donor rack's sub-MN:
// perform the normal donor walk for a recipient outside the rack.
type delegateReq struct {
	DelegID    int
	Recipient  fabric.NodeID
	Res        Resource
	Size       uint64
	WindowBase uint64
	Policy     string        // per-request policy override for the donor walk
	Latency    bool          // latency-sensitive class for the granted row
	Trace      uint64        // lease trace id for the granted row
	Tenant     uint64        // requesting tenant for the granted row
	Class      tenancy.Class // tenant priority class (donor-rack admission: admit/reject only)
}

// delegateResp answers a delegateReq.
type delegateResp struct {
	OK        bool
	Err       string
	AllocID   int // RAT row id at the donor-rack sub-MN
	Donor     fabric.NodeID
	DonorBase uint64
}

// delegateFreeReq asks a donor rack's sub-MN to tear down a delegated
// lease it is backing, by its local RAT row id.
type delegateFreeReq struct {
	AllocID int
}

// delegateCancelReq is the root MN's cancellation of a delegate call
// whose response it never saw: the sub resolves the row (if its grant
// did complete) by the delegation id the request carried — the
// root-to-sub analogue of the flat plane's key-resolved hot-return
// cancellation.
type delegateCancelReq struct {
	DelegID int
}
