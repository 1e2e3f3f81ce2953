package core

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Adaptive is the adaptive communication library of §5.1.3: given a
// transfer's size and pattern it picks the best of the three channels
// and performs the operation, letting the channels supplement each
// other (its QPair runs credits over CRMA).
type Adaptive struct {
	Node  *node.Node
	Lease *MemoryLease     // CRMA/RDMA target region (borrowed memory)
	QP    *transport.QPair // message channel to the donor
}

// NewAdaptive builds the library over a memory lease and an optional
// queue pair to the donor.
func NewAdaptive(n *node.Node, lease *MemoryLease, qp *transport.QPair) *Adaptive {
	return &Adaptive{Node: n, Lease: lease, QP: qp}
}

// Get fetches size bytes at offset into the lease window using the
// advised channel and returns the channel used.
func (a *Adaptive) Get(p *sim.Proc, offset uint64, size int, pattern transport.Pattern) transport.Channel {
	ch := transport.Advise(size, pattern)
	switch ch {
	case transport.ChanCRMA:
		// Through the cache hierarchy: hardware cacheline fills.
		a.Node.Mem.Read(p, a.Lease.WindowBase+offset, size)
	case transport.ChanRDMA:
		a.Node.EP.RDMA.Read(p, a.Lease.Donor(), a.donorAddr(offset), size)
	case transport.ChanQPair:
		a.Message(p, size)
	}
	return ch
}

// Put stores size bytes at offset into the lease window using the
// advised channel and returns the channel used.
func (a *Adaptive) Put(p *sim.Proc, offset uint64, size int, pattern transport.Pattern) transport.Channel {
	ch := transport.Advise(size, pattern)
	switch ch {
	case transport.ChanCRMA:
		a.Node.Mem.Write(p, a.Lease.WindowBase+offset, size)
	case transport.ChanRDMA:
		a.Node.EP.RDMA.Write(p, a.Lease.Donor(), a.donorAddr(offset), size)
	case transport.ChanQPair:
		a.Message(p, size)
	}
	return ch
}

// Message sends an explicit message of size bytes to the donor over the
// QPair channel.
func (a *Adaptive) Message(p *sim.Proc, size int) {
	if a.QP == nil {
		panic(fmt.Sprintf("core: adaptive library on %v has no QPair", a.Node.ID))
	}
	a.QP.Send(p, size, nil)
}

// donorAddr translates a window offset to the donor-local address.
func (a *Adaptive) donorAddr(offset uint64) uint64 {
	// The lease's RAMT entry translates window addresses; RDMA targets
	// donor-physical addresses directly.
	return a.leaseDonorBase() + offset
}

func (a *Adaptive) leaseDonorBase() uint64 {
	return a.Lease.entry.RemoteBase
}
