package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/memsys"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/transport"
)

// MemoryLease is a live remote-memory borrow: a hot-plugged window on
// the recipient backed by a donor region over the CRMA channel. Accesses
// to the window are ordinary loads and stores — no special API (§5.2.1).
// It satisfies Lease; acquire one with Kind Memory (MN-brokered) or
// DirectMemory (explicit donor, no MN).
type MemoryLease struct {
	Recipient  *node.Node
	WindowBase uint64
	// DonorBase is the region's donor-local base address — what the RDMA
	// channel (which addresses donor memory directly) targets for bulk
	// transfers against the leased region.
	DonorBase uint64
	Size      uint64

	donor   fabric.NodeID
	kind    Kind
	allocID int           // -1 for direct (MN-less) attachments
	mn      fabric.NodeID // the MN (or sub-MN) that brokered the lease
	region  *memsys.Region
	entry   *transport.RAMTEntry
	hub     *eventHub
	trace   uint64
}

// Trace reports the lease's trace id (see Lease.Trace).
func (l *MemoryLease) Trace() uint64 { return l.trace }

// Kind reports how the lease was acquired (Memory or DirectMemory).
func (l *MemoryLease) Kind() Kind { return l.kind }

// Donor reports the donor node as of the grant. Recovery may re-place
// the backing afterwards; the window keeps working either way (the
// recipient's agent retargets it transparently), but bulk RDMA against
// DonorBase must follow the plane's failed-over events to stay aimed.
func (l *MemoryLease) Donor() fabric.NodeID { return l.donor }

// Window reports the hot-plugged recipient-side window.
func (l *MemoryLease) Window() (base, size uint64) { return l.WindowBase, l.Size }

// attachMemoryDirect wires a borrow between two specific nodes without
// the Monitor Node — the controlled configuration of the §4.2 latency
// studies. The donor side is driven directly rather than via its agent.
func attachMemoryDirect(p *sim.Proc, recipient, donor *node.Node, size uint64) (*MemoryLease, error) {
	win := recipient.NextHotplugWindow(size)
	donorBase, err := donor.MemMgr.HotRemove(p, size)
	if err != nil {
		// A drained donor is the direct-path analogue of "no donor with
		// enough idle bytes": transient, so WithRetry engages.
		return nil, fmt.Errorf("core: direct attach: %w: %w", err, ErrUnavailable)
	}
	donor.EP.CRMA.Export(recipient.ID, win, size, donorBase)
	return mountCRMA(p, recipient, donor.ID, win, donorBase, size)
}

// mountCRMA installs the recipient-side mapping and hot-plugs the
// window. The caller stamps kind, broker, and event-hub fields.
func mountCRMA(p *sim.Proc, recipient *node.Node, donor fabric.NodeID, win, donorBase, size uint64) (*MemoryLease, error) {
	entry, err := recipient.EP.CRMA.Map(win, size, donor, donorBase)
	if err != nil {
		return nil, fmt.Errorf("core: mapping borrowed window: %w", err)
	}
	region := &memsys.Region{Base: win, Size: size,
		Backend: &memsys.CRMARemote{CRMA: recipient.EP.CRMA, Donor: donor}}
	if err := recipient.Mem.AS.Add(region); err != nil {
		recipient.EP.CRMA.Unmap(entry)
		return nil, fmt.Errorf("core: hot-plugging borrowed window: %w", err)
	}
	// Hot-plug cost on the recipient (Fig. 10 step 2).
	p.Sleep(recipient.P.HotplugOp)
	return &MemoryLease{
		Recipient:  recipient,
		WindowBase: win,
		DonorBase:  donorBase,
		Size:       size,
		donor:      donor,
		kind:       DirectMemory,
		allocID:    -1,
		region:     region,
		entry:      entry,
	}, nil
}

// Release tears the lease down: invalidate the mapping, drop the region,
// flush stale cache lines, and (for MN-brokered leases) return the
// memory to the donor.
func (l *MemoryLease) Release(p *sim.Proc) {
	l.Recipient.Mem.AS.Remove(l.region)
	l.Recipient.Mem.Cache.InvalidateAll()
	l.Recipient.EP.CRMA.Unmap(l.entry)
	if l.allocID >= 0 {
		monitor.Free(p, l.Recipient.EP, l.mn, l.allocID)
	}
	p.Sleep(l.Recipient.P.HotplugOp)
	if l.hub != nil {
		l.hub.emit(Event{
			Type: LeaseReleased, Kind: l.kind, At: p.Now(), Trace: l.trace,
			Recipient: l.Recipient.ID, Donor: l.donor,
			Size: l.Size, Window: l.WindowBase,
		})
	}
}
