package accel

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/node"
	"repro/internal/sim"
)

// Client is the recipient-side accelerator library (§5.2.2): it hides
// device location behind handles, ships input/output over the RDMA
// channel, and rings doorbells over small control messages — pipelining
// chunks so transfer overlaps compute.
type Client struct {
	Node    *node.Node
	pending map[uint64]*pendingChunk
	nextTag uint64
}

// pendingChunk is one in-flight pipeline chunk, kept until its result
// lands back in local memory. Recording the launch parameters (not just
// a completion closure) is what makes failover possible: Retarget
// replays every outstanding chunk of a handle against a new donor.
type pendingChunk struct {
	h    *RemoteHandle
	exec string
	addr uint64
	size int
	// started marks the result read-back as issued; a duplicate done
	// signal for the same chunk (possible when a retarget races the old
	// donor's last completions) is then ignored.
	started bool
	// done finishes the chunk exactly once (idempotent), however many
	// read-backs ultimately complete for it.
	done func()
}

// NewClient attaches the accelerator library to a node.
func NewClient(n *node.Node) *Client {
	c := &Client{Node: n, pending: make(map[uint64]*pendingChunk)}
	n.EP.Handle("accel.done", func(pkt *fabric.Packet) {
		m := pkt.Payload.(*accelDoneMsg)
		ck, ok := c.pending[m.Tag]
		if !ok || ck.started {
			return
		}
		// Stage 3: the donor signalled completion — read the result chunk
		// back; its arrival finishes the chunk. The donor is read at fire
		// time so a retargeted handle reads from its current donor.
		ck.started = true
		rd := sim.NewCompletion(n.Eng)
		n.EP.RDMA.ReadAsync(ck.h.Donor, ck.addr, ck.size, rd)
		rd.Then(ck.done)
	})
	return c
}

// RemoteHandle drives one remote accelerator mailbox.
type RemoteHandle struct {
	c       *Client
	Donor   fabric.NodeID
	Mailbox int
	// BufBase is the donor-side pinned staging buffer for this handle.
	BufBase uint64

	// Tasks and Bytes count work shipped through this handle.
	Tasks int64
	Bytes int64
	// Replays counts chunks re-launched by Retarget after a donor
	// failover.
	Replays int64
}

// Attach opens a handle to mailbox mb on the donor. Whether the donor
// drives that mailbox through its kernel thread or the direct path is
// the donor's setting (Service.SetExclusive).
func (c *Client) Attach(donor fabric.NodeID, mb int) *RemoteHandle {
	return &RemoteHandle{
		c:       c,
		Donor:   donor,
		Mailbox: mb,
		BufBase: 0x7000_0000 + uint64(mb)<<28,
	}
}

// Retarget repoints the handle at a new donor (the MN failed the lease
// over) and replays every outstanding chunk there: inputs are re-shipped
// with their original tags, so the pipeline completes on the new device
// without the caller noticing beyond the extra transfer time. Runs
// without a process — it is called from lease-event observers — relying
// on the async RDMA surface only. Reads still in flight against the old
// donor stay harmless: chunk completion is idempotent.
func (h *RemoteHandle) Retarget(newDonor fabric.NodeID) {
	h.Donor = newDonor
	var tags []uint64
	for tag, ck := range h.c.pending {
		if ck.h == h {
			tags = append(tags, tag)
		}
	}
	// Map order is nondeterministic; the wire must not be.
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	ep := h.c.Node.EP
	for _, tag := range tags {
		ck := h.c.pending[tag]
		ck.started = false
		h.Replays++
		start := &accelStartMsg{Mailbox: h.Mailbox, Exec: ck.exec, Bytes: ck.size, Tag: tag}
		ep.RDMA.WriteAsyncNote(newDonor, ck.addr, ck.size, start, nil)
	}
}

// Run offloads one task of n input bytes (producing n output bytes, as
// for FFT) and blocks until the results are back in local memory. Data
// moves in Params.AccelChunkBytes pieces down a three-stage pipeline:
// input RDMA -> accelerator -> output RDMA.
func (h *RemoteHandle) Run(p *sim.Proc, exec string, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("accel: non-positive task size %d", n))
	}
	h.Tasks++
	h.Bytes += int64(n)
	eng := h.c.Node.Eng
	ep := h.c.Node.EP
	par := h.c.Node.P
	chunk := par.AccelChunkBytes
	g := sim.NewGroup(eng)
	// The doorbell (a store into the exclusively-mapped mailbox) is paid
	// once per task; per-chunk starts ride the data as RDMA immediates,
	// so FIFO delivery launches each chunk the moment its input lands.
	p.Sleep(par.AccelDoorbell)
	for off := 0; off < n; off += chunk {
		sz := chunk
		if off+sz > n {
			sz = n - off
		}
		g.Add(1)
		tag := h.c.nextTag
		h.c.nextTag++
		addr := h.BufBase + uint64(off)
		ck := &pendingChunk{h: h, exec: exec, addr: addr, size: sz}
		finished := false
		ck.done = func() {
			if finished {
				return
			}
			finished = true
			delete(h.c.pending, tag)
			g.Done()
		}
		h.c.pending[tag] = ck
		// Stage 1+2: ship the input chunk with the start request as its
		// immediate; the donor launches the accelerator on arrival.
		start := &accelStartMsg{Mailbox: h.Mailbox, Exec: exec, Bytes: sz, Tag: tag}
		ep.RDMA.WriteAsyncNote(h.Donor, addr, sz, start, nil)
	}
	g.Wait(p)
}
