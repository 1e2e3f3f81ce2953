package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
)

// Both cluster shapes are Planes: scenario code written against the
// interface runs on either.
var (
	_ Plane = (*Cluster)(nil)
	_ Plane = (*HierCluster)(nil)
)

// plane is the acquisition surface both cluster shapes embed. A shape
// supplies only its broker and whether it has racks; validation, the
// retry schedule, batching, every grant path and the event stream run
// here once.
type plane struct {
	// hub fans lease-lifecycle events out to Observe subscribers; a
	// flat cluster's MN feeds it its recovery events.
	hub eventHub
	// nodes indexes the shape's nodes by id (device leases reach their
	// donors through it).
	nodes []*node.Node
	// hier tells whether the plane has racks (and so accepts placement
	// scopes).
	hier bool
	// broker names the MN that brokers a grant for a recipient.
	broker func(on *node.Node) (fabric.NodeID, error)
}

// Observe registers a lease-lifecycle observer and returns its cancel.
// A rack-scale plane recovers nothing, so its stream carries only the
// plane's own grants, releases and failed acquires. See Plane.
func (c *plane) Observe(fn Observer) (cancel func()) { return c.hub.observe(fn) }

// Acquire obtains one resource through the recipient's Monitor Node —
// on a rack-scale plane its rack sub-MN, escalated across the spine by
// the root MN when the rack cannot (or, under ScopeRemoteRack, must
// not) serve it. See Plane.
func (c *plane) Acquire(p *sim.Proc, req Request) (Lease, error) {
	// Mint the lease's trace id before the first attempt, so a failed
	// acquire and the grant it finally becomes share one span chain.
	req.tags.Trace = c.hub.nextTrace()
	attempts := req.retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := req.retry.Backoff
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 && backoff > 0 {
			p.Sleep(backoff)
			if f := req.retry.Factor; f > 1 {
				backoff = sim.Dur(float64(backoff) * f)
			}
		}
		var l Lease
		if l, err = c.acquireOnce(p, req); err == nil {
			return l, nil
		}
		if !retryable(err) {
			break
		}
	}
	var on fabric.NodeID // a validation error may report a nil recipient
	if req.On != nil {
		on = req.On.ID
	}
	c.hub.emit(Event{
		Type: LeaseAcquireFailed, Kind: req.Kind, At: p.Now(), Trace: req.tags.Trace,
		Recipient: on, Size: req.Size, Err: err.Error(),
	})
	return nil, err
}

// AcquireAll grants every request or none: sequential grants, reverse
// rollback on the first failure. See Plane.
func (c *plane) AcquireAll(p *sim.Proc, reqs ...Request) ([]Lease, error) {
	leases := make([]Lease, 0, len(reqs))
	for i, r := range reqs {
		l, err := c.Acquire(p, r)
		if err != nil {
			for j := len(leases) - 1; j >= 0; j-- {
				leases[j].Release(p)
			}
			return nil, fmt.Errorf("core: batch acquire %d/%d (%s): %w", i+1, len(reqs), r.Kind, err)
		}
		leases = append(leases, l)
	}
	return leases, nil
}

// acquireOnce runs one acquisition attempt.
func (c *plane) acquireOnce(p *sim.Proc, r Request) (Lease, error) {
	if err := r.validate(c.hier); err != nil {
		return nil, err
	}
	mn, err := c.broker(r.On)
	if err != nil {
		return nil, err
	}
	l := lease{kind: r.Kind, recipient: r.On, mn: mn, trace: r.tags.Trace, plane: c}
	switch r.Kind {
	case Memory:
		return acquireMemory(p, r, l)
	case Swap:
		return acquireSwap(p, r, l)
	case Accel:
		return acquireAccel(p, r, l)
	default: // NIC (validate rejected the rest)
		return acquireNIC(p, r, l)
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
		Res: res, Size: r.Size, WindowBase: window, Scope: r.scope, Tags: r.tags,
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

// lease is the record every concrete lease embeds: the fields its
// events report and what its release needs.
type lease struct {
	kind      Kind
	recipient *node.Node
	donor     fabric.NodeID
	// size and window are what the lease's events report: a memory
	// lease's granted bytes and recipient-side window base (swap has no
	// window), one unit and no window for a device.
	size, window uint64
	allocID      int           // the grant's row in its MN's RAT
	mn           fabric.NodeID // the MN (or sub-MN) that brokered the lease
	trace        uint64
	plane        *plane
}

// Trace reports the lease's trace id (see Lease.Trace).
func (l *lease) Trace() uint64 { return l.trace }

// Kind reports the resource class the lease was acquired as.
func (l *lease) Kind() Kind { return l.kind }

// Donor reports the donor node backing the lease. A device lease
// follows recovery onto its new donor; a memory or swap lease reports
// the donor as of the grant. A memory window keeps working across a
// re-placement (the recipient's agent retargets it transparently), but
// bulk RDMA against DonorBase must follow the plane's failed-over
// events to stay aimed.
func (l *lease) Donor() fabric.NodeID { return l.donor }

// back obtains from the broker the donor region a memory or swap lease
// rests on. It stamps the donor, size and alloc id on the record and
// returns the region's donor-local base; win is the grant's
// recipient-side window.
func (l *lease) back(p *sim.Proc, r Request, win uint64) (uint64, error) {
	resp, err := grantVia(p, r, l.mn, monitor.Memory, win)
	if err != nil {
		return 0, err
	}
	l.donor, l.size, l.allocID = resp.Donor, resp.Granted, resp.AllocID
	return resp.DonorBase, nil
}

// event stamps an event of type t with the lease's fields.
func (l *lease) event(p *sim.Proc, t EventType) Event {
	return Event{Type: t, Kind: l.kind, At: p.Now(), Trace: l.trace,
		Recipient: l.recipient.ID, Donor: l.donor, Size: l.size, Window: l.window}
}

// granted announces the grant of r, with the request's tenant.
func (l *lease) granted(p *sim.Proc, r Request) {
	ev := l.event(p, LeaseGranted)
	ev.Tenant, ev.Class = r.tags.Tenant, r.tags.Class
	l.plane.hub.emit(ev)
}

// free returns the lease's allocation row to its MN.
func (l *lease) free(p *sim.Proc) { monitor.Free(p, l.recipient.EP, l.mn, l.allocID) }

// released announces a voluntary release.
func (l *lease) released(p *sim.Proc) { l.plane.hub.emit(l.event(p, LeaseReleased)) }
