package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/vnic"
)

// Device leases subscribe to their plane's event stream and follow
// monitor recovery live: a failed-over lease retargets its handle (or
// rebuilds its VNIC path) onto the new donor, a revoked lease marks
// itself dead. Observers run synchronously on the engine goroutine and
// cost no virtual time, so retargeting uses only the async surfaces
// (RDMA immediates, backend proc spawn).

// AccelLease is a remote accelerator attachment: the MN chose a donor
// advertising a free device, and the recipient drives it through the
// accelerator library's handle (§5.2.2). It satisfies Lease; acquire
// one with Kind Accel plus WithClient (and WithDevice/WithExclusive for
// the mailbox).
type AccelLease struct {
	Handle    *accel.RemoteHandle
	Recipient *node.Node

	donor       *node.Node
	nodes       []*node.Node
	allocID     int
	mn          fabric.NodeID
	hub         *eventHub
	trace       uint64
	cancelWatch func()
	revoked     bool
}

// Trace reports the lease's trace id (see Lease.Trace).
func (l *AccelLease) Trace() uint64 { return l.trace }

// Kind reports Accel.
func (l *AccelLease) Kind() Kind { return Accel }

// Donor reports the node hosting the attached device. Recovery may have
// moved it since the grant; the handle follows automatically.
func (l *AccelLease) Donor() fabric.NodeID { return l.donor.ID }

// DonorNode returns the donor node itself (device leases know their
// node, not just its id — the donor runs the accel.Service).
func (l *AccelLease) DonorNode() *node.Node { return l.donor }

// Window reports no memory window: device leases move data over the
// transport channels, not a hot-plugged region.
func (l *AccelLease) Window() (base, size uint64) { return 0, 0 }

// Revoked reports whether recovery destroyed the lease's backing with
// no surviving replacement; work submitted afterwards will never
// complete.
func (l *AccelLease) Revoked() bool { return l.revoked }

// onEvent follows the lease's own recovery transitions on the plane's
// stream (trace ids are plane-unique per lease).
func (l *AccelLease) onEvent(ev Event) {
	if ev.Trace != l.trace {
		return
	}
	switch ev.Type {
	case LeaseFailedOver:
		l.donor = l.nodes[ev.Donor]
		l.Handle.Retarget(ev.Donor)
	case LeaseRevoked:
		l.revoked = true
	}
}

// Release returns the device to the donor's advertised pool.
func (l *AccelLease) Release(p *sim.Proc) {
	if l.cancelWatch != nil {
		l.cancelWatch()
	}
	monitor.Free(p, l.Recipient.EP, l.mn, l.allocID)
	if l.hub != nil {
		l.hub.emit(Event{
			Type: LeaseReleased, Kind: Accel, At: p.Now(), Trace: l.trace,
			Recipient: l.Recipient.ID, Donor: l.donor.ID, Size: 1,
		})
	}
}

// NICLease is a remote NIC attachment: a VNIC front-end whose frames
// egress on the donor's physical NIC (§5.2.3). It satisfies Lease;
// acquire one with Kind NIC. It also satisfies vnic.Slave, delegating
// to the current VNIC — enslave the lease itself in a vnic.Bond and the
// bond keeps working across donor failovers.
type NICLease struct {
	VNIC      *vnic.VNIC
	Recipient *node.Node

	donor       *node.Node
	nodes       []*node.Node
	eng         *sim.Engine
	params      *sim.Params
	allocID     int
	mn          fabric.NodeID
	hub         *eventHub
	trace       uint64
	cancelWatch func()
	revoked     bool
}

// NICLease egresses for bonds across failovers.
var _ vnic.Slave = (*NICLease)(nil)

// Trace reports the lease's trace id (see Lease.Trace).
func (l *NICLease) Trace() uint64 { return l.trace }

// Kind reports NIC.
func (l *NICLease) Kind() Kind { return NIC }

// Donor reports the node whose physical NIC carries the VNIC's frames.
// Recovery may have moved it since the grant; the path follows
// automatically.
func (l *NICLease) Donor() fabric.NodeID { return l.donor.ID }

// DonorNode returns the donor node itself.
func (l *NICLease) DonorNode() *node.Node { return l.donor }

// Window reports no memory window.
func (l *NICLease) Window() (base, size uint64) { return 0, 0 }

// Revoked reports whether recovery destroyed the lease's backing with
// no surviving replacement.
func (l *NICLease) Revoked() bool { return l.revoked }

// Send transmits size payload bytes through the lease's current VNIC
// path (vnic.Slave).
func (l *NICLease) Send(p *sim.Proc, size int) { l.VNIC.Send(p, size) }

// Drained reports when the current path's egress NIC goes idle
// (vnic.Slave).
func (l *NICLease) Drained() sim.Time { return l.VNIC.Drained() }

// Name identifies the lease's current VNIC path (vnic.Slave).
func (l *NICLease) Name() string { return l.VNIC.Name() }

// onEvent follows the lease's own recovery transitions on the plane's
// stream: a failover rebuilds the VNIC path against the new donor's
// physical NIC. The old path's backend proc parks harmlessly on
// its abandoned queue pair; packets it already queued on the dead
// donor's NIC are lost, as they would be on real hardware.
func (l *NICLease) onEvent(ev Event) {
	if ev.Trace != l.trace {
		return
	}
	switch ev.Type {
	case LeaseFailedOver:
		donor := l.nodes[ev.Donor]
		dn := vnic.NewNIC(l.eng, l.params, fmt.Sprintf("eth0@%v", donor.ID))
		l.VNIC = vnic.AttachRemote(l.Recipient, donor, dn)
		l.donor = donor
	case LeaseRevoked:
		l.revoked = true
	}
}

// Release stops the back-end and returns the NIC to the pool.
func (l *NICLease) Release(p *sim.Proc) {
	if l.cancelWatch != nil {
		l.cancelWatch()
	}
	l.VNIC.Close(p)
	monitor.Free(p, l.Recipient.EP, l.mn, l.allocID)
	if l.hub != nil {
		l.hub.emit(Event{
			Type: LeaseReleased, Kind: NIC, At: p.Now(), Trace: l.trace,
			Recipient: l.Recipient.ID, Donor: l.donor.ID, Size: 1,
		})
	}
}
