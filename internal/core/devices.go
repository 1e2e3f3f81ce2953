package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/vnic"
)

// device is the record both device leases embed. While the lease lives
// it watches its plane's event stream and follows monitor recovery
// live: a failed-over lease retargets its handle (or rebuilds its VNIC
// path) onto the new donor, a revoked lease marks itself dead.
// Observers run synchronously on the engine goroutine and cost no
// virtual time, so retargeting uses only the async surfaces (RDMA
// immediates, backend proc spawn).
type device struct {
	lease
	cancelWatch func()
	revoked     bool
}

// Window reports no memory window: device leases move data over the
// transport channels, not a hot-plugged region.
func (l *device) Window() (base, size uint64) { return 0, 0 }

// Revoked reports whether recovery destroyed the lease's backing with
// no surviving replacement; work submitted afterwards will never
// complete.
func (l *device) Revoked() bool { return l.revoked }

// grant asks the broker for one unit of res and stamps the grant on the
// record (device events report size 1 and no window).
func (l *device) grant(p *sim.Proc, r Request, res monitor.Resource) error {
	resp, err := grantVia(p, r, l.mn, res, 0)
	if err != nil {
		return err
	}
	l.donor, l.allocID, l.size = resp.Donor, resp.AllocID, 1
	return nil
}

// watch follows the lease's own recovery transitions on the plane's
// stream (trace ids are plane-unique per lease): a failover moves the
// lease to the new donor and calls retarget with it.
func (l *device) watch(retarget func(donor fabric.NodeID)) {
	l.cancelWatch = l.plane.hub.observe(func(ev Event) {
		if ev.Trace != l.trace {
			return
		}
		switch ev.Type {
		case LeaseFailedOver:
			l.donor = ev.Donor
			retarget(ev.Donor)
		case LeaseRevoked:
			l.revoked = true
		}
	})
}

// AccelLease is a remote accelerator attachment: the MN chose a donor
// advertising a free device, and the recipient drives it through the
// accelerator library's handle (§5.2.2). It satisfies Lease; acquire
// one with Kind Accel plus WithClient (and WithDevice for the mailbox).
type AccelLease struct {
	device
	Handle *accel.RemoteHandle
}

// acquireAccel asks the broker for a remote accelerator and opens a
// handle to the requested mailbox on the chosen donor. The donor must
// be running an accel.Service (its agent advertises the device count).
func acquireAccel(p *sim.Proc, r Request, l lease) (Lease, error) {
	al := &AccelLease{device: device{lease: l}}
	if err := al.grant(p, r, monitor.DevAccelerator); err != nil {
		return nil, err
	}
	al.Handle = r.client.Attach(al.donor, r.device)
	// Follow recovery live: a donor failover retargets the handle and
	// replays in-flight chunks against the replacement device.
	al.watch(al.Handle.Retarget)
	al.granted(p, r)
	return al, nil
}

// Release returns the device to the donor's advertised pool.
func (l *AccelLease) Release(p *sim.Proc) {
	l.cancelWatch()
	l.free(p)
	l.released(p)
}

// NICLease is a remote NIC attachment: a VNIC front-end whose frames
// egress on the donor's physical NIC (§5.2.3). It satisfies Lease;
// acquire one with Kind NIC. It also satisfies vnic.Slave, delegating
// to the current VNIC — enslave the lease itself in a vnic.Bond and the
// bond keeps working across donor failovers.
type NICLease struct {
	device
	VNIC *vnic.VNIC
}

// NICLease egresses for bonds across failovers.
var _ vnic.Slave = (*NICLease)(nil)

// acquireNIC asks the broker for a remote NIC and builds the VNIC path
// to the chosen donor's physical NIC.
func acquireNIC(p *sim.Proc, r Request, l lease) (Lease, error) {
	nl := &NICLease{device: device{lease: l}}
	if err := nl.grant(p, r, monitor.DevNIC); err != nil {
		return nil, err
	}
	nl.attach(nl.donor)
	// Follow recovery live: a donor failover rebuilds the VNIC path
	// against the replacement donor's physical NIC. The old path's
	// backend proc parks harmlessly on its abandoned queue pair; packets
	// it already queued on the dead donor's NIC are lost, as they would
	// be on real hardware.
	nl.watch(nl.attach)
	nl.granted(p, r)
	return nl, nil
}

// attach builds the VNIC path from the recipient to the physical NIC of
// donor (created here on its behalf).
func (l *NICLease) attach(donor fabric.NodeID) {
	dn := l.plane.nodes[donor]
	l.VNIC = vnic.AttachRemote(l.recipient, dn, vnic.NewNIC(dn.Eng, dn.P, fmt.Sprintf("eth0@%v", donor)))
}

// Send transmits size payload bytes through the lease's current VNIC
// path (vnic.Slave).
func (l *NICLease) Send(p *sim.Proc, size int) { l.VNIC.Send(p, size) }

// Drained reports when the current path's egress NIC goes idle
// (vnic.Slave).
func (l *NICLease) Drained() sim.Time { return l.VNIC.Drained() }

// Name identifies the lease's current VNIC path (vnic.Slave).
func (l *NICLease) Name() string { return l.VNIC.Name() }

// Release stops the back-end and returns the NIC to the pool.
func (l *NICLease) Release(p *sim.Proc) {
	l.cancelWatch()
	l.VNIC.Close(p)
	l.free(p)
	l.released(p)
}
