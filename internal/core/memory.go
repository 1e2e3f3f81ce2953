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
//
// The handle is the lease's one allocation: it holds the window's
// region, its CRMA backend and its RAMT entry by value. An access in
// flight keeps a pointer to the entry past Release, which is safe since
// no handle is ever reused.
type MemoryLease struct {
	lease
	WindowBase uint64
	// DonorBase is the region's donor-local base address — what the RDMA
	// channel (which addresses donor memory directly) targets for bulk
	// transfers against the leased region.
	DonorBase uint64
	Size      uint64

	region  memsys.Region
	backend memsys.CRMARemote
	entry   transport.RAMTEntry
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
	ml := &MemoryLease{lease: l, WindowBase: l.window, DonorBase: base, Size: l.size}
	if err := ml.mount(p); err != nil {
		// The grant committed MN-side (RAT row live, donor region
		// hot-removed); a recipient-side mount failure must hand it back
		// or the donor's memory leaks untracked.
		ml.free(p)
		return nil, err
	}
	ml.granted(p, r)
	return ml, nil
}

// mount installs the recipient-side mapping of the lease's window onto
// its donor region and hot-plugs the window. A degraded grant mounts at
// the same base: the hot-plug window was sized for the full request, so
// the smaller region has room to spare.
func (l *MemoryLease) mount(p *sim.Proc) error {
	n := l.recipient
	l.entry = transport.RAMTEntry{LocalBase: l.WindowBase, Size: l.Size, Node: l.donor, RemoteBase: l.DonorBase}
	if err := n.EP.CRMA.MapEntry(&l.entry); err != nil {
		return fmt.Errorf("core: mapping borrowed window: %w", err)
	}
	l.backend = memsys.CRMARemote{CRMA: n.EP.CRMA, Donor: l.donor}
	l.region = memsys.Region{Base: l.WindowBase, Size: l.Size, Backend: &l.backend}
	if err := n.Mem.AS.Add(&l.region); err != nil {
		n.EP.CRMA.Unmap(&l.entry)
		return fmt.Errorf("core: hot-plugging borrowed window: %w", err)
	}
	// Hot-plug cost on the recipient (Fig. 10 step 2).
	p.Sleep(n.P.HotplugOp)
	return nil
}

// Release tears the lease down: invalidate the mapping, drop the region,
// flush stale cache lines, and return the memory to the donor.
func (l *MemoryLease) Release(p *sim.Proc) {
	n := l.recipient
	n.Mem.AS.Remove(&l.region)
	n.Mem.Cache.InvalidateAll()
	n.EP.CRMA.Unmap(&l.entry)
	l.free(p)
	p.Sleep(n.P.HotplugOp)
	l.released(p)
}
