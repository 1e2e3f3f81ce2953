package accel

import (
	"fmt"
	"slices"

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
	nextTag uint64
	calls   []*call // idle call records
}

// call is one Run in flight: its chunks and the completion its proc
// awaits. A call record is pooled by its client and re-armed for each
// Run, so concurrent Runs on one handle each wait on their own. Its life
// ends when Run returns.
type call struct {
	h      *RemoteHandle
	chunks []*chunk // the first n are this Run's, in tag order
	n      int
	left   int // chunks whose results are not back yet
	done   *sim.Completion
}

// chunk is one in-flight pipeline chunk, kept until its result lands
// back in local memory. Recording the launch parameters (not just a
// completion) is what makes failover possible: Retarget replays every
// outstanding chunk of a handle against a new donor.
//
// A chunk record is reused by its call record for a later Run's chunk,
// under a new tag, only if it was never retargeted: then it had one
// start note, one completion flag and one read-back, all done before
// the chunk finished. A retarget may leave the old donor holding its
// note, setting its flag or answering its read-back after the chunk
// finished, so a retargeted record is left to the GC.
type chunk struct {
	call *call
	addr uint64
	// note is the start request the chunk's input carries, its size
	// among it; the donor reads it when the input lands.
	note startNote
	// started marks the result read-back as issued; a duplicate flag for
	// the same chunk (possible when a retarget races the old donor's
	// last completions) is then ignored.
	started    bool
	finished   bool
	retargeted bool
	// rd is the completion the chunk's first read-back completes, kept
	// for the record's whole life and re-armed for it; rdUsed marks it
	// taken. A retargeted chunk's later read-backs each complete a fresh
	// completion, since rd may still be pending.
	rd     *sim.Completion
	rdUsed bool
	onRead func()
}

// startNote rings a mailbox from a remote recipient: the note that rides
// the RDMA write-with-immediate carrying a chunk's input, with Fig. 11's
// request (which executable), the input size, and the recipient's
// completion flag for the chunk, which the donor sets with tag when the
// task drains.
type startNote struct {
	mailbox int
	exec    string
	bytes   int
	tag     uint64
	flag    func(from fabric.NodeID, tag uint64)
}

// NewClient attaches the accelerator library to a node.
func NewClient(n *node.Node) *Client { return &Client{Node: n} }

// RemoteHandle drives one remote accelerator mailbox.
type RemoteHandle struct {
	c       *Client
	Donor   fabric.NodeID
	Mailbox int
	// BufBase is the donor-side pinned staging buffer for this handle.
	BufBase uint64

	// live holds the handle's Runs with chunks outstanding, in the order
	// they issued them, which is tag order.
	live []*call

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
// donor stay harmless: a chunk finishes once.
func (h *RemoteHandle) Retarget(newDonor fabric.NodeID) {
	h.Donor = newDonor
	ep := h.c.Node.EP
	for _, cr := range h.live {
		for _, ck := range cr.chunks[:cr.n] {
			if ck.finished {
				continue
			}
			ck.started, ck.retargeted = false, true
			h.Replays++
			ep.RDMA.WriteAsyncNote(newDonor, ck.addr, ck.note.bytes, &ck.note, nil)
		}
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
	ep := h.c.Node.EP
	par := h.c.Node.P
	size := par.AccelChunkBytes
	cr := h.c.take(h)
	// The doorbell (a store into the exclusively-mapped mailbox) is paid
	// once per task; per-chunk starts ride the data as RDMA immediates,
	// so FIFO delivery launches each chunk the moment its input lands.
	p.Sleep(par.AccelDoorbell)
	h.live = append(h.live, cr)
	for off := 0; off < n; off += size {
		ck := cr.next()
		ck.addr = h.BufBase + uint64(off)
		ck.note.mailbox, ck.note.exec, ck.note.bytes, ck.note.tag = h.Mailbox, exec, min(size, n-off), h.c.nextTag
		h.c.nextTag++
		// Stage 1+2: ship the input chunk with the start request as its
		// immediate; the donor launches the accelerator on arrival.
		ep.RDMA.WriteAsyncNote(h.Donor, ck.addr, ck.note.bytes, &ck.note, nil)
	}
	p.Await(cr.done)
	h.c.recycle(cr)
}

// take returns an idle call record for a Run on h, re-armed.
func (c *Client) take(h *RemoteHandle) *call {
	cr := pop(&c.calls)
	if cr == nil {
		cr = &call{done: sim.NewCompletion(c.Node.Eng)}
	}
	cr.h = h
	cr.done.Rearm()
	return cr
}

// recycle puts a finished call record back, keeping the chunk records
// that can carry another chunk.
func (c *Client) recycle(cr *call) {
	for i, ck := range cr.chunks[:cr.n] {
		if ck.retargeted {
			cr.chunks[i] = nil
		}
	}
	cr.h, cr.n = nil, 0
	c.calls = append(c.calls, cr)
}

// next returns the call's next chunk record, reset for a new chunk: a
// kept one, or a fresh one with its handlers bound.
func (cr *call) next() *chunk {
	if cr.n == len(cr.chunks) {
		cr.chunks = append(cr.chunks, nil)
	}
	ck := cr.chunks[cr.n]
	if ck == nil {
		ck = &chunk{call: cr, rd: sim.NewCompletion(cr.h.c.Node.Eng)}
		ck.note.flag, ck.onRead = ck.signal, ck.finish
		cr.chunks[cr.n] = ck
	}
	ck.started, ck.finished, ck.rdUsed = false, false, false
	cr.n++
	cr.left++
	return ck
}

// signal is the chunk's completion flag: the donor sets it with the
// chunk's tag when the chunk's task drains, and the chunk's result is
// read back. The donor is read at this moment, so a retargeted handle
// reads from its current donor. A flag set for another tag (the record
// carries a later chunk now), for a finished chunk or for one whose
// read-back is already issued is ignored.
func (ck *chunk) signal(_ fabric.NodeID, tag uint64) {
	if tag != ck.note.tag || ck.finished || ck.started {
		return
	}
	// Stage 3: read the result chunk back; its arrival finishes the
	// chunk.
	ck.started = true
	h := ck.call.h
	rd := ck.rd
	if ck.rdUsed {
		rd = sim.NewCompletion(h.c.Node.Eng)
	} else {
		rd.Rearm()
		ck.rdUsed = true
	}
	h.c.Node.EP.RDMA.ReadAsync(h.Donor, ck.addr, ck.note.bytes, rd)
	rd.Then(ck.onRead)
}

// finish ends the chunk when the first of its read-backs lands, and
// wakes its Run when it was the last one out; later read-backs of a
// retargeted chunk find it finished.
func (ck *chunk) finish() {
	if ck.finished {
		return
	}
	ck.finished = true
	cr := ck.call
	if cr.left--; cr.left > 0 {
		return
	}
	h := cr.h
	i := slices.Index(h.live, cr)
	h.live = slices.Delete(h.live, i, i+1)
	cr.done.Complete()
}

// pop takes the last record off a free list, or returns nil when the
// list is empty.
func pop[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	r := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return r
}
