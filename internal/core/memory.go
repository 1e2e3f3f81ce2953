package core

import (
	"fmt"

	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/transport"
)

// MemoryLease is a live remote-memory borrow: a hot-plugged window on
// the recipient backed by a donor region over the CRMA channel. Accesses
// to the window are ordinary loads and stores — no special API (§5.2.1).
// It satisfies Lease; acquire one with Kind Memory.
type MemoryLease struct {
	lease
	WindowBase uint64
	// DonorBase is the region's donor-local base address — what the RDMA
	// channel (which addresses donor memory directly) targets for bulk
	// transfers against the leased region.
	DonorBase uint64
	Size      uint64

	region *memsys.Region
	entry  *transport.RAMTEntry
}

// Window reports the hot-plugged recipient-side window.
func (l *MemoryLease) Window() (base, size uint64) { return l.WindowBase, l.Size }

// acquireMemory runs the Fig. 2 flow: pick the hot-plug window, back it
// with a donor region (see lease.back), and mount the region over CRMA.
func acquireMemory(p *sim.Proc, r Request, l lease) (Lease, error) {
	l.window = r.On.NextHotplugWindow(r.Size)
	base, err := l.back(p, r, l.window)
	if err != nil {
		return nil, err
	}
	// A degraded grant mounts at the same base: the hot-plug window was
	// sized for the full request, so the smaller region has room to spare.
	ml, err := mountCRMA(p, l, base)
	if err != nil {
		// The grant committed MN-side (RAT row live, donor region
		// hot-removed); a recipient-side mount failure must hand it back
		// or the donor's memory leaks untracked.
		l.free(p)
		return nil, err
	}
	ml.granted(p, r)
	return ml, nil
}

// mountCRMA installs the recipient-side mapping of the record's window
// onto the donor region at donorBase and hot-plugs the window.
func mountCRMA(p *sim.Proc, l lease, donorBase uint64) (*MemoryLease, error) {
	n := l.recipient
	entry, err := n.EP.CRMA.Map(l.window, l.size, l.donor, donorBase)
	if err != nil {
		return nil, fmt.Errorf("core: mapping borrowed window: %w", err)
	}
	region := &memsys.Region{Base: l.window, Size: l.size,
		Backend: &memsys.CRMARemote{CRMA: n.EP.CRMA, Donor: l.donor}}
	if err := n.Mem.AS.Add(region); err != nil {
		n.EP.CRMA.Unmap(entry)
		return nil, fmt.Errorf("core: hot-plugging borrowed window: %w", err)
	}
	// Hot-plug cost on the recipient (Fig. 10 step 2).
	p.Sleep(n.P.HotplugOp)
	return &MemoryLease{lease: l, WindowBase: l.window, DonorBase: donorBase, Size: l.size,
		region: region, entry: entry}, nil
}

// Release tears the lease down: invalidate the mapping, drop the region,
// flush stale cache lines, and return the memory to the donor.
func (l *MemoryLease) Release(p *sim.Proc) {
	n := l.recipient
	n.Mem.AS.Remove(l.region)
	n.Mem.Cache.InvalidateAll()
	n.EP.CRMA.Unmap(l.entry)
	l.free(p)
	p.Sleep(n.P.HotplugOp)
	l.released(p)
}
