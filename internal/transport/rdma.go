package transport

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// rdmaReq asks the donor's DMA state machine to stream a region.
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
	pending  map[uint64]*rdmaPending
	nextID   uint64
	observer func(from fabric.NodeID, addr uint64, note any)

	Stats RDMAStats
}

// ObserveImmediate registers the consumer of write-with-immediate notes
// arriving at this endpoint.
func (r *RDMA) ObserveImmediate(fn func(from fabric.NodeID, addr uint64, note any)) {
	r.observer = fn
}

type rdmaPending struct {
	done     *sim.Completion
	received int
	total    int
}

func newRDMA(ep *Endpoint) *RDMA {
	return &RDMA{ep: ep, pending: make(map[uint64]*rdmaPending)}
}

// chunksFor computes the chunk count for a transfer.
func (r *RDMA) chunksFor(size int) int {
	n := (size + r.ep.P.RDMAChunk - 1) / r.ep.P.RDMAChunk
	if n < 1 {
		n = 1
	}
	return n
}

// ReadAsync starts a DMA that copies size bytes from donor-local address
// remoteAddr into this node's memory, returning the completion that
// fires after the final chunk and the completion interrupt.
func (r *RDMA) ReadAsync(donor fabric.NodeID, remoteAddr uint64, size int) *sim.Completion {
	if size <= 0 {
		panic(fmt.Sprintf("rdma: non-positive transfer size %d", size))
	}
	r.Stats.Reads++
	id := r.nextID
	r.nextID++
	chunks := r.chunksFor(size)
	pend := &rdmaPending{done: sim.NewCompletion(r.ep.Eng), total: chunks}
	r.pending[id] = pend
	req := &rdmaReq{id: id, addr: remoteAddr, size: size, write: false, chunks: chunks}
	// Software descriptor setup, then doorbell and a small request packet.
	r.ep.Eng.Schedule(r.ep.P.RDMADescSW, func() {
		r.ep.SendRaw(donor, "rdma.req", 32, req)
	})
	return pend.done
}

// Read blocks the calling process until the DMA read completes.
func (r *RDMA) Read(p *sim.Proc, donor fabric.NodeID, remoteAddr uint64, size int) {
	p.Await(r.ReadAsync(donor, remoteAddr, size))
}

// WriteAsync starts a DMA that pushes size bytes from this node into
// donor-local address remoteAddr.
func (r *RDMA) WriteAsync(donor fabric.NodeID, remoteAddr uint64, size int) *sim.Completion {
	return r.WriteAsyncNote(donor, remoteAddr, size, nil)
}

// WriteAsyncNote is WriteAsync with an immediate note attached to the
// final chunk: when that chunk lands, the receiver's immediate observer
// sees the note — no extra control packet, and FIFO delivery guarantees
// the data precedes the notification.
func (r *RDMA) WriteAsyncNote(donor fabric.NodeID, remoteAddr uint64, size int, note any) *sim.Completion {
	if size <= 0 {
		panic(fmt.Sprintf("rdma: non-positive transfer size %d", size))
	}
	r.Stats.Writes++
	id := r.nextID
	r.nextID++
	chunks := r.chunksFor(size)
	pend := &rdmaPending{done: sim.NewCompletion(r.ep.Eng), total: 1}
	r.pending[id] = pend
	// Software descriptor setup, then the source-side engine streams
	// chunks; the donor acks the last one.
	r.ep.Eng.Schedule(r.ep.P.RDMADescSW, func() {
		remaining := size
		for i := 0; i < chunks; i++ {
			n := r.ep.P.RDMAChunk
			if n > remaining {
				n = remaining
			}
			remaining -= n
			c := &rdmaChunk{id: id, idx: i, last: i == chunks-1, size: n,
				addr: remoteAddr + uint64(i*r.ep.P.RDMAChunk)}
			if c.last {
				c.note = note
			}
			r.Stats.BytesOut += int64(n)
			r.ep.SendRaw(donor, "rdma.data", n, c)
		}
	})
	return pend.done
}

// Write blocks the calling process until the DMA write is acknowledged.
func (r *RDMA) Write(p *sim.Proc, donor fabric.NodeID, remoteAddr uint64, size int) {
	p.Await(r.WriteAsync(donor, remoteAddr, size))
}

// handleReq runs at the donor: stream the requested region back as
// chunks, charging memory service per chunk; the link model provides
// pipelining and bandwidth sharing.
func (r *RDMA) handleReq(pkt *fabric.Packet, m *rdmaReq) {
	from := pkt.Src
	remaining := m.size
	var elapsed sim.Dur
	for i := 0; i < m.chunks; i++ {
		n := r.ep.P.RDMAChunk
		if n > remaining {
			n = remaining
		}
		remaining -= n
		addr := m.addr + uint64(i*r.ep.P.RDMAChunk)
		elapsed += r.ep.Mem.Service(addr, n, false)
		c := &rdmaChunk{id: m.id, idx: i, last: i == m.chunks-1, size: n, addr: addr, resp: true}
		r.Stats.BytesOut += int64(n)
		r.ep.Eng.At(r.ep.Eng.Now().Add(elapsed), func() {
			r.ep.SendRaw(from, "rdma.data", c.size, c)
		})
	}
}

// handleChunk consumes one arriving chunk at either end.
func (r *RDMA) handleChunk(pkt *fabric.Packet, m *rdmaChunk) {
	r.Stats.BytesIn += int64(m.size)
	if m.resp {
		// Requester side of a read.
		pend, ok := r.pending[m.id]
		if !ok {
			return
		}
		pend.received++
		if pend.received == pend.total {
			delete(r.pending, m.id)
			// Completion interrupt + driver bottom half.
			r.ep.Eng.Schedule(r.ep.P.RDMADoneIRQ, pend.done.Complete)
		}
		return
	}
	// Donor side of a write: absorb into memory; ack the last chunk and
	// deliver any immediate note once the data is in memory.
	svc := r.ep.Mem.Service(m.addr, m.size, true)
	if m.last {
		from := pkt.Src
		m := m
		r.ep.Eng.Schedule(svc, func() {
			r.ep.SendRaw(from, "rdma.ack", 0, &rdmaChunk{id: m.id, resp: true, last: true, size: 0})
			if m.note != nil && r.observer != nil {
				r.observer(from, m.addr, m.note)
			}
		})
	}
}
