package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/memsys"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
)

// SwapLease is remote memory used as swap space (§5.2.1): a donor region
// reached through the high-performance virtual block device over the
// RDMA channel. The recipient mounts it under a Paged backend. It
// satisfies Lease; acquire one with Kind Swap (MN-brokered) or
// DirectSwap (explicit donor, no MN).
type SwapLease struct {
	Recipient *node.Node
	DonorBase uint64
	Size      uint64
	Dev       *memsys.RemoteSwap

	donor   fabric.NodeID
	kind    Kind
	allocID int
	mn      fabric.NodeID
	hub     *eventHub
	trace   uint64
}

// Trace reports the lease's trace id (see Lease.Trace).
func (l *SwapLease) Trace() uint64 { return l.trace }

// Kind reports how the lease was acquired (Swap or DirectSwap).
func (l *SwapLease) Kind() Kind { return l.kind }

// Donor reports the donor node backing the device.
func (l *SwapLease) Donor() fabric.NodeID { return l.donor }

// Window reports no recipient-side window: the lease reaches the donor
// through the block device until Mount installs a paged region.
func (l *SwapLease) Window() (base, size uint64) { return 0, l.Size }

// attachSwapDirect builds the swap device between two specific nodes
// without the MN.
func attachSwapDirect(p *sim.Proc, recipient, donor *node.Node, size uint64) (*SwapLease, error) {
	base, err := donor.MemMgr.HotRemove(p, size)
	if err != nil {
		// Transient like the brokered path's donor-walk failure (see
		// attachMemoryDirect).
		return nil, fmt.Errorf("core: direct swap attach: %w: %w", err, ErrUnavailable)
	}
	return &SwapLease{
		Recipient: recipient,
		DonorBase: base,
		Size:      size,
		Dev: &memsys.RemoteSwap{P: recipient.P, RDMA: recipient.EP.RDMA,
			Donor: donor.ID, Base: base},
		donor:   donor.ID,
		kind:    DirectSwap,
		allocID: -1,
	}, nil
}

// Mount installs a paged region of regionSize bytes at base in the
// recipient's address space, with residentPages of local backing and
// this lease's device behind it, and returns the paged backend for
// inspection.
func (l *SwapLease) Mount(base, regionSize uint64, residentPages int) (*memsys.Paged, error) {
	paged := memsys.NewPaged(l.Recipient.P, residentPages, l.Dev)
	if err := l.Recipient.Mem.AS.Add(&memsys.Region{Base: base, Size: regionSize, Backend: paged}); err != nil {
		return nil, fmt.Errorf("core: mounting swap-backed region: %w", err)
	}
	return paged, nil
}

// Release returns the donor memory (for MN-brokered leases).
func (l *SwapLease) Release(p *sim.Proc) {
	if l.allocID >= 0 {
		monitor.Free(p, l.Recipient.EP, l.mn, l.allocID)
	}
	if l.hub != nil {
		l.hub.emit(Event{
			Type: LeaseReleased, Kind: l.kind, At: p.Now(), Trace: l.trace,
			Recipient: l.Recipient.ID, Donor: l.donor, Size: l.Size,
		})
	}
}
