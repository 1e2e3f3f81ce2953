package core

import (
	"fmt"

	"repro/internal/memsys"
	"repro/internal/sim"
)

// SwapLease is remote memory used as swap space (§5.2.1): a donor region
// reached through the high-performance virtual block device over the
// RDMA channel. The recipient mounts it under a Paged backend. It
// satisfies Lease; acquire one with Kind Swap.
type SwapLease struct {
	lease
	DonorBase uint64
	Size      uint64
	Dev       *memsys.RemoteSwap
}

// Window reports no recipient-side window: the lease reaches the donor
// through the block device until Mount installs a paged region.
func (l *SwapLease) Window() (base, size uint64) { return 0, l.Size }

// acquireSwap backs a swap lease with a donor region (see lease.back)
// and wraps the region in the remote-swap block device. Nothing is
// mapped at the lease's hot-plug window, but reserving one gives the
// grant its recipient-unique key: the donor's agent files exports by
// (recipient, window), so two swap leases from one donor must not share
// one.
func acquireSwap(p *sim.Proc, r Request, l lease) (Lease, error) {
	base, err := l.back(p, r, r.On.NextHotplugWindow(r.Size))
	if err != nil {
		return nil, err
	}
	sl := &SwapLease{lease: l, DonorBase: base, Size: l.size,
		Dev: &memsys.RemoteSwap{P: r.On.P, RDMA: r.On.EP.RDMA, Donor: l.donor, Base: base}}
	sl.granted(p, r)
	return sl, nil
}

// Mount installs a paged region of regionSize bytes at base in the
// recipient's address space, with residentPages of local backing and
// this lease's device behind it, and returns the paged backend for
// inspection.
func (l *SwapLease) Mount(base, regionSize uint64, residentPages int) (*memsys.Paged, error) {
	paged := memsys.NewPaged(l.recipient.P, residentPages, l.Dev)
	if err := l.recipient.Mem.AS.Add(&memsys.Region{Base: base, Size: regionSize, Backend: paged}); err != nil {
		return nil, fmt.Errorf("core: mounting swap-backed region: %w", err)
	}
	return paged, nil
}

// Release returns the donor memory.
func (l *SwapLease) Release(p *sim.Proc) {
	l.free(p)
	l.released(p)
}
