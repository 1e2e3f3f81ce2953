package transport

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// rdmaReq asks the donor's DMA state machine to stream a region. A
// write's descriptor has the same shape but stays at the requester.
type rdmaReq struct {
	id     uint64
	addr   uint64 // donor-local address
	size   int
	write  bool // true: the chunks that follow carry data donor-ward
	chunks int
}

// rdmaChunk is one DMA chunk on the wire. For reads the donor streams
// chunks to the requester; for writes the requester streams them to the
// donor, and the final chunk elicits the completion. A write's final
// chunk may carry an immediate note (write-with-immediate), delivered to
// the receiver's registered observer — the mechanism remote accelerator
// mailboxes use to ring their doorbell in-band with the data.
type rdmaChunk struct {
	id   uint64
	idx  int
	last bool
	size int
	addr uint64
	resp bool // true when flowing donor->requester for a read
	note any  // immediate payload on a write's last chunk
}

// RDMAStats counts RDMA channel activity.
type RDMAStats struct {
	Reads    int64
	Writes   int64
	BytesIn  int64
	BytesOut int64
}

// RDMA is the bulk-transfer channel (§5.1.2): software posts a
// descriptor; hardware state machines divide the region into chunks for
// packetization and raise a completion interrupt at the end.
type RDMA struct {
	ep       *Endpoint
	pending  pendingTable[rdmaOp]
	observer func(from fabric.NodeID, addr uint64, note any)
	ops      freeList[rdmaOp]
	sends    freeList[rdmaSend]
	reqs     wireList[rdmaReq]
	chunks   wireList[rdmaChunk]

	Stats RDMAStats
}

// ObserveImmediate registers the consumer of write-with-immediate notes
// arriving at this endpoint.
func (r *RDMA) ObserveImmediate(fn func(from fabric.NodeID, addr uint64, note any)) {
	r.observer = fn
}

// rdmaOp is one outstanding DMA at its requester: a read waiting for its
// chunks, or a write streaming its chunks and waiting for the ack. done
// is the completion the op fires: the caller's under ReadAsync and
// WriteAsyncNote (nil when nobody waits), or own, which the record
// keeps for its whole life and Read and Write re-arm for each op. Its
// life ends in its completion event.
type rdmaOp struct {
	r        *RDMA
	to       fabric.NodeID
	req      rdmaReq
	note     any // a write's immediate note
	done     *sim.Completion
	own      *sim.Completion
	received int
	total    int
	onStart  func()
	onDone   func()
}

// start runs once the descriptor is posted: a read sends its request, a
// write streams its chunks.
func (op *rdmaOp) start() {
	r, m := op.r, &op.req
	if !m.write {
		send(&r.reqs, r.ep, op.to, "rdma.req", 32, *m)
		return
	}
	for i := 0; i < m.chunks; i++ {
		c := r.chunk(m, i)
		if c.last {
			c.note = op.note
		}
		r.Stats.BytesOut += int64(c.size)
		send(&r.chunks, r.ep, op.to, "rdma.data", c.size, c)
	}
}

// complete raises the completion once the interrupt and its bottom half
// have run.
func (op *rdmaOp) complete() {
	if op.done != nil {
		op.done.Complete()
	}
	op.done, op.note = nil, nil
	op.r.ops.put(op)
}

// rdmaSend is one chunk of a read, or the ack of a write, waiting out the
// memory service time at the end that sends it. Its life ends when it is
// sent.
type rdmaSend struct {
	r      *RDMA
	to     fabric.NodeID
	c      rdmaChunk
	onSend func()
}

// send injects a read's chunk, or acks a write whose last chunk is now in
// memory and hands its immediate note to the observer.
func (s *rdmaSend) send() {
	r, to, c := s.r, s.to, s.c
	s.c.note = nil
	r.sends.put(s)
	if c.resp {
		send(&r.chunks, r.ep, to, "rdma.data", c.size, c)
		return
	}
	send(&r.chunks, r.ep, to, "rdma.ack", 0, rdmaChunk{id: c.id, resp: true, last: true})
	if c.note != nil && r.observer != nil {
		r.observer(to, c.addr, c.note)
	}
}

func newRDMA(ep *Endpoint) *RDMA {
	r := &RDMA{ep: ep}
	r.ops.fresh = func() *rdmaOp {
		op := &rdmaOp{r: r, own: sim.NewCompletion(ep.Eng)}
		op.onStart, op.onDone = op.start, op.complete
		return op
	}
	r.sends.fresh = func() *rdmaSend {
		s := &rdmaSend{r: r}
		s.onSend = s.send
		return s
	}
	return r
}

// chunksFor computes the chunk count for a transfer.
func (r *RDMA) chunksFor(size int) int {
	n := (size + r.ep.P.RDMAChunk - 1) / r.ep.P.RDMAChunk
	if n < 1 {
		n = 1
	}
	return n
}

// chunk returns chunk i of the transfer m describes.
func (r *RDMA) chunk(m *rdmaReq, i int) rdmaChunk {
	off := i * r.ep.P.RDMAChunk
	return rdmaChunk{id: m.id, idx: i, last: i == m.chunks-1,
		size: min(r.ep.P.RDMAChunk, m.size-off), addr: m.addr + uint64(off)}
}

// post starts a DMA of size bytes at donor-local address addr that
// completes done, and returns its op: software descriptor setup, then
// the op sends its request (a read) or streams its chunks (a write). A
// read completes after its last chunk arrives, a write after the donor
// acks its last chunk.
func (r *RDMA) post(donor fabric.NodeID, addr uint64, size int, write bool, note any, done *sim.Completion) *rdmaOp {
	if size <= 0 {
		panic(fmt.Sprintf("rdma: non-positive transfer size %d", size))
	}
	op := r.ops.get()
	op.to, op.note, op.done = donor, note, done
	op.req = rdmaReq{id: r.pending.add(op), addr: addr, size: size, write: write, chunks: r.chunksFor(size)}
	op.received, op.total = 0, op.req.chunks
	if write {
		r.Stats.Writes++
		op.total = 1
	} else {
		r.Stats.Reads++
	}
	r.ep.Eng.Schedule(r.ep.P.RDMADescSW, op.onStart)
	return op
}

// await blocks p on the completion op's record owns, as CRMA's blocking
// accesses do.
func (r *RDMA) await(p *sim.Proc, op *rdmaOp) {
	op.own.Rearm()
	op.done = op.own
	p.Await(op.own)
}

// ReadAsync starts a DMA that copies size bytes from donor-local address
// remoteAddr into this node's memory, and completes done after the
// final chunk and the completion interrupt. done belongs to the caller,
// who passes it incomplete and leaves it alone until it fires; nil
// means nobody waits.
func (r *RDMA) ReadAsync(donor fabric.NodeID, remoteAddr uint64, size int, done *sim.Completion) {
	r.post(donor, remoteAddr, size, false, nil, done)
}

// Read blocks the calling process until the DMA read completes.
func (r *RDMA) Read(p *sim.Proc, donor fabric.NodeID, remoteAddr uint64, size int) {
	r.await(p, r.post(donor, remoteAddr, size, false, nil, nil))
}

// WriteAsyncNote starts a DMA that pushes size bytes from this node into
// donor-local address remoteAddr, with an immediate note attached to the
// final chunk: when that chunk lands, the receiver's immediate observer
// sees the note — no extra control packet, and FIFO delivery guarantees
// the data precedes the notification. It completes done, as ReadAsync
// does, once the donor acks the final chunk.
func (r *RDMA) WriteAsyncNote(donor fabric.NodeID, remoteAddr uint64, size int, note any, done *sim.Completion) {
	r.post(donor, remoteAddr, size, true, note, done)
}

// Write blocks the calling process until the DMA write is acknowledged.
func (r *RDMA) Write(p *sim.Proc, donor fabric.NodeID, remoteAddr uint64, size int) {
	r.await(p, r.post(donor, remoteAddr, size, true, nil, nil))
}

// handleReq runs at the donor: stream the requested region back as
// chunks, charging memory service per chunk; the link model provides
// pipelining and bandwidth sharing.
func (r *RDMA) handleReq(pkt *fabric.Packet, m *rdmaReq) {
	var elapsed sim.Dur
	for i := 0; i < m.chunks; i++ {
		s := r.sends.get()
		s.to, s.c = pkt.Src, r.chunk(m, i)
		s.c.resp = true
		elapsed += r.ep.P.DRAMAccess(s.c.size)
		r.Stats.BytesOut += int64(s.c.size)
		r.ep.Eng.At(r.ep.Eng.Now().Add(elapsed), s.onSend)
	}
}

// handleChunk consumes one arriving chunk at either end.
func (r *RDMA) handleChunk(pkt *fabric.Packet, m *rdmaChunk) {
	r.Stats.BytesIn += int64(m.size)
	if m.resp {
		// Requester side: a read's chunk or a write's ack; one for an op
		// that is no longer pending is dropped.
		op := r.pending.get(m.id)
		if op == nil {
			return
		}
		op.received++
		if op.received == op.total {
			r.pending.remove(m.id)
			// Completion interrupt + driver bottom half.
			r.ep.Eng.Schedule(r.ep.P.RDMADoneIRQ, op.onDone)
		}
		return
	}
	// Donor side of a write: absorb into memory; ack the last chunk and
	// deliver any immediate note once the data is in memory.
	svc := r.ep.P.DRAMAccess(m.size)
	if m.last {
		s := r.sends.get()
		s.to, s.c = pkt.Src, *m
		r.ep.Eng.Schedule(svc, s.onSend)
	}
}
