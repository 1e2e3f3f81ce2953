package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/memsys"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/vnic"
)

// Both cluster shapes are Planes: scenario code written against the
// interface runs on either.
var (
	_ Plane = (*Cluster)(nil)
	_ Plane = (*HierCluster)(nil)
)

// Observe registers a lease-lifecycle observer with the flat plane and
// returns its cancel.
func (c *Cluster) Observe(fn Observer) (cancel func()) { return c.hub.observe(fn) }

// Acquire obtains one resource through the flat plane's Monitor Node
// (or directly, for the Direct kinds). See Plane.
func (c *Cluster) Acquire(p *sim.Proc, req Request) (Lease, error) {
	return acquireWithRetry(p, req, &c.hub, c.acquireOnce)
}

// AcquireAll grants every request or none. See Plane.
func (c *Cluster) AcquireAll(p *sim.Proc, reqs ...Request) ([]Lease, error) {
	return acquireAll(c, p, reqs)
}

// acquireOnce runs one acquisition attempt on the flat plane.
func (c *Cluster) acquireOnce(p *sim.Proc, r Request) (Lease, error) {
	if err := r.validate(false); err != nil {
		return nil, err
	}
	switch r.Kind {
	case Memory:
		return acquireMemory(p, r, c.MN.Node(), &c.hub)
	case Swap:
		return acquireSwap(p, r, c.MN.Node(), &c.hub)
	case Accel:
		return acquireAccel(p, r, c.MN.Node(), c.Nodes, &c.hub)
	case NIC:
		return acquireNIC(p, r, c.MN.Node(), c.Eng, c.P, c.Nodes, &c.hub)
	default: // DirectMemory, DirectSwap (validate rejected the rest)
		return acquireDirect(p, r, &c.hub)
	}
}

// Observe registers a lease-lifecycle observer with the rack-scale
// plane (it aggregates every sub-MN's and the root's recovery events)
// and returns its cancel.
func (c *HierCluster) Observe(fn Observer) (cancel func()) { return c.hub.observe(fn) }

// Acquire obtains one resource through the recipient's rack sub-MN —
// escalated across the spine by the root MN when the rack cannot (or,
// under ScopeRemoteRack, must not) serve it. See Plane.
func (c *HierCluster) Acquire(p *sim.Proc, req Request) (Lease, error) {
	return acquireWithRetry(p, req, &c.hub, c.acquireOnce)
}

// AcquireAll grants every request or none. See Plane.
func (c *HierCluster) AcquireAll(p *sim.Proc, reqs ...Request) ([]Lease, error) {
	return acquireAll(c, p, reqs)
}

// acquireOnce runs one acquisition attempt on the rack-scale plane.
func (c *HierCluster) acquireOnce(p *sim.Proc, r Request) (Lease, error) {
	if err := r.validate(true); err != nil {
		return nil, err
	}
	if r.Kind.direct() {
		return acquireDirect(p, r, &c.hub)
	}
	rack, ok := c.Hier.RackOf(r.On.ID)
	if !ok {
		return nil, fmt.Errorf("%w: recipient %v is a spine switch, not a rack member", ErrBadRequest, r.On.ID)
	}
	sub := c.SubNode(rack)
	switch r.Kind {
	case Memory:
		return acquireMemory(p, r, sub, &c.hub)
	case Swap:
		return acquireSwap(p, r, sub, &c.hub)
	case Accel:
		return acquireAccel(p, r, sub, c.Nodes, &c.hub)
	default: // NIC
		return acquireNIC(p, r, sub, c.Eng, c.P, c.Nodes, &c.hub)
	}
}

// grantVia sends r's grant request for res to mn (a flat MN or the
// recipient's rack sub-MN; on a flat plane validate pins r.scope to
// ScopeAny) and maps the outcome onto the plane's errors: a timeout is
// ErrTimeout, an admission rejection ErrAdmissionRejected, and any other
// decline ErrUnavailable. window is a memory grant's recipient-unique
// key. On success resp.Granted holds the size the grant backs: r.Size,
// or less when admission degraded a memory grant.
func grantVia(p *sim.Proc, r Request, mn fabric.NodeID, res monitor.Resource, window uint64) (*monitor.AllocResp, error) {
	resp, ok := monitor.Alloc(p, r.On.EP, mn, monitor.AllocReq{
		Res: res, Size: r.Size, WindowBase: window, Scope: r.scope, Policy: r.policy,
		Latency: r.latency, Trace: r.trace, Tenant: r.tenant, Class: r.class,
	}, r.timeout)
	switch {
	case !ok:
		return nil, fmt.Errorf("core: acquire %s: %w", r.Kind, ErrTimeout)
	case resp.Rejected:
		return nil, fmt.Errorf("core: acquire %s: %s: %w", r.Kind, resp.Err, ErrAdmissionRejected)
	case !resp.OK:
		return nil, fmt.Errorf("core: acquire %s: %s: %w", r.Kind, resp.Err, ErrUnavailable)
	}
	if resp.Granted == 0 {
		resp.Granted = r.Size
	}
	return resp, nil
}

// acquireMemory runs the MN-brokered remote-memory grant — the complete
// Fig. 2 flow: pick the hot-plug window, ask mn, and mount the granted
// region over CRMA.
func acquireMemory(p *sim.Proc, r Request, mn fabric.NodeID, hub *eventHub) (Lease, error) {
	win := r.On.NextHotplugWindow(r.Size)
	resp, err := grantVia(p, r, mn, monitor.Memory, win)
	if err != nil {
		return nil, err
	}
	// A degraded grant mounts at the same base: the hot-plug window was
	// sized for the full request, so the smaller region has room to spare.
	size := resp.Granted
	lease, err := mountCRMA(p, r.On, resp.Donor, win, resp.DonorBase, size)
	if err != nil {
		// The grant committed MN-side (RAT row live, donor region
		// hot-removed); a recipient-side mount failure must hand it back
		// or the donor's memory leaks untracked.
		monitor.Free(p, r.On.EP, mn, resp.AllocID)
		return nil, err
	}
	lease.kind, lease.allocID, lease.mn, lease.hub, lease.trace = Memory, resp.AllocID, mn, hub, r.trace
	emitGranted(hub, p, Memory, r.On.ID, resp.Donor, size, win, r.trace, r.tenant, r.class)
	return lease, nil
}

// acquireSwap obtains donor memory through mn and wraps it in the
// remote-swap block device. Nothing is mapped at the lease's hot-plug
// window, but reserving one gives the grant its recipient-unique key:
// the donor's agent files exports by (recipient, window), so two swap
// leases from one donor must not share one.
func acquireSwap(p *sim.Proc, r Request, mn fabric.NodeID, hub *eventHub) (Lease, error) {
	resp, err := grantVia(p, r, mn, monitor.Memory, r.On.NextHotplugWindow(r.Size))
	if err != nil {
		return nil, err
	}
	lease := &SwapLease{
		Recipient: r.On,
		DonorBase: resp.DonorBase,
		Size:      resp.Granted,
		Dev: &memsys.RemoteSwap{P: r.On.P, RDMA: r.On.EP.RDMA,
			Donor: resp.Donor, Base: resp.DonorBase},
		donor:   resp.Donor,
		kind:    Swap,
		allocID: resp.AllocID,
		mn:      mn,
		hub:     hub,
		trace:   r.trace,
	}
	emitGranted(hub, p, Swap, r.On.ID, resp.Donor, resp.Granted, 0, r.trace, r.tenant, r.class)
	return lease, nil
}

// acquireAccel asks mn for a remote accelerator and opens a handle to
// the requested mailbox on the chosen donor. The donor must be running
// an accel.Service (its agent advertises the device count).
func acquireAccel(p *sim.Proc, r Request, mn fabric.NodeID, nodes []*node.Node, hub *eventHub) (Lease, error) {
	resp, err := grantVia(p, r, mn, monitor.DevAccelerator, 0)
	if err != nil {
		return nil, err
	}
	h := r.client.Attach(resp.Donor, r.device, r.exclusive)
	lease := &AccelLease{
		Handle:    h,
		Recipient: r.On,
		donor:     nodes[resp.Donor],
		nodes:     nodes,
		allocID:   resp.AllocID,
		mn:        mn,
		hub:       hub,
		trace:     r.trace,
	}
	// Follow recovery live: a donor failover retargets the handle and
	// replays in-flight chunks against the replacement device.
	lease.cancelWatch = hub.observe(lease.onEvent)
	emitGranted(hub, p, Accel, r.On.ID, resp.Donor, 1, 0, r.trace, r.tenant, r.class)
	return lease, nil
}

// acquireNIC asks mn for a remote NIC and builds the VNIC path to the
// chosen donor's physical NIC (created here on its behalf).
func acquireNIC(p *sim.Proc, r Request, mn fabric.NodeID, eng *sim.Engine, params *sim.Params, nodes []*node.Node, hub *eventHub) (Lease, error) {
	resp, err := grantVia(p, r, mn, monitor.DevNIC, 0)
	if err != nil {
		return nil, err
	}
	donor := nodes[resp.Donor]
	dn := vnic.NewNIC(eng, params, fmt.Sprintf("eth0@%v", donor.ID))
	v := vnic.AttachRemote(r.On, donor, dn)
	lease := &NICLease{
		VNIC:      v,
		Recipient: r.On,
		donor:     donor,
		nodes:     nodes,
		eng:       eng,
		params:    params,
		allocID:   resp.AllocID,
		mn:        mn,
		hub:       hub,
		trace:     r.trace,
	}
	// Follow recovery live: a donor failover rebuilds the VNIC path
	// against the replacement donor's physical NIC.
	lease.cancelWatch = hub.observe(lease.onEvent)
	emitGranted(hub, p, NIC, r.On.ID, resp.Donor, 1, 0, r.trace, r.tenant, r.class)
	return lease, nil
}

// acquireDirect wires a DirectMemory/DirectSwap attachment between the
// request's recipient and its named donor, bypassing the MN — but, on
// this surface, no longer bypassing the plane's lifecycle stream.
func acquireDirect(p *sim.Proc, r Request, hub *eventHub) (Lease, error) {
	if r.Kind == DirectMemory {
		lease, err := attachMemoryDirect(p, r.On, r.donor, r.Size)
		if err != nil {
			return nil, err
		}
		lease.hub, lease.trace = hub, r.trace
		emitGranted(hub, p, DirectMemory, r.On.ID, r.donor.ID, r.Size, lease.WindowBase, r.trace, 0, tenancy.ClassNone)
		return lease, nil
	}
	lease, err := attachSwapDirect(p, r.On, r.donor, r.Size)
	if err != nil {
		return nil, err
	}
	lease.hub, lease.trace = hub, r.trace
	emitGranted(hub, p, DirectSwap, r.On.ID, r.donor.ID, r.Size, 0, r.trace, 0, tenancy.ClassNone)
	return lease, nil
}

// emitGranted announces a successful grant on the plane's stream.
func emitGranted(hub *eventHub, p *sim.Proc, kind Kind, recipient, donor fabric.NodeID, size, window uint64, trace, tenant uint64, class tenancy.Class) {
	hub.emit(Event{
		Type: LeaseGranted, Kind: kind, At: p.Now(), Trace: trace,
		Recipient: recipient, Donor: donor, Size: size, Window: window,
		Tenant: tenant, Class: class,
	})
}
