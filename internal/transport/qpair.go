package transport

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// qpMsg is one QPair message on the wire.
type qpMsg struct {
	dstQID int
	seq    uint64
	size   int
	data   any
	sent   sim.Time
}

// qpCredit returns transport-level flow-control credits to a data
// sender. It travels either as a QPair control message (the traditional
// design) or inside a CRMA posted write (the collaborative design of
// §5.1.3 / Fig. 9).
type qpCredit struct {
	dstQID  int
	credits int
}

// Message is a received QPair message as seen by software.
type Message struct {
	From fabric.NodeID
	Size int
	Data any
	// Latency is wire + queueing time from Send to arrival.
	Latency sim.Dur
}

// QPairConfig shapes one direction of a queue pair. The extra cost of
// Fig. 5's off-chip QPair comes from the interface's placement off the
// processor die (fabric.Switch.SetOffChip), not from this config.
type QPairConfig struct {
	// Window is the transport-level credit window: the number of receive
	// buffers at the peer. Zero disables transport flow control. The
	// receiver returns credits in batches of a quarter window (at least
	// one).
	Window int
	// CreditViaCRMA routes credit updates through the CRMA channel as
	// posted writes instead of QPair control messages (Fig. 9 right).
	CreditViaCRMA bool
}

// creditBatch is how many consumed messages the receiver accumulates
// before returning credits.
func (c QPairConfig) creditBatch() int { return max(1, c.Window/4) }

// QPairStats counts one endpoint's QPair activity.
type QPairStats struct {
	Sent        int64
	Received    int64
	OutOfOrder  int64
	CreditStall sim.Dur // total time the sender spent blocked on credits
	CreditsSent int64
}

// QPair is one endpoint of a bidirectional user-level channel between two
// communicating threads (§5.1.2). Data written into the local send queue
// is delivered to the counterpart's receive queue by hardware state
// machines, freeing the CPU.
type QPair struct {
	ep   *Endpoint
	id   int
	dst  int
	peer fabric.NodeID
	cfg  QPairConfig

	credits *sim.Semaphore // nil when flow control is disabled
	recvQ   *sim.Queue[Message]

	sendSeq   uint64
	expectSeq uint64
	reorder   map[uint64]qpMsg // copies: a message's wire goes back once it is delivered

	consumed int // messages consumed since the last credit return

	Stats QPairStats
}

// nextQPID hands out process-unique queue-pair ids. Simulations on
// different engines may connect queue pairs concurrently (the
// experiment harness runs trials in parallel), so the counter is
// atomic; only uniqueness matters, never the numeric value.
var nextQPID atomic.Int64

// ConnectQPair establishes a queue pair between two endpoints and
// returns the two ends. Both directions share the same configuration.
func ConnectQPair(a, b *Endpoint, cfg QPairConfig) (*QPair, *QPair) {
	if a.Eng != b.Eng {
		panic("transport: qpair endpoints on different engines")
	}
	qa := &QPair{ep: a, id: int(nextQPID.Add(1)), peer: b.ID, cfg: cfg, reorder: make(map[uint64]qpMsg)}
	qb := &QPair{ep: b, id: int(nextQPID.Add(1)), peer: a.ID, cfg: cfg, reorder: make(map[uint64]qpMsg)}
	qa.dst, qb.dst = qb.id, qa.id
	qa.recvQ = sim.NewQueue[Message](a.Eng)
	qb.recvQ = sim.NewQueue[Message](b.Eng)
	if cfg.Window > 0 {
		qa.credits = sim.NewSemaphore(a.Eng, cfg.Window)
		qb.credits = sim.NewSemaphore(b.Eng, cfg.Window)
	}
	a.qpairs[qa.id] = qa
	b.qpairs[qb.id] = qb
	return qa, qb
}

// Peer reports the node at the other end.
func (q *QPair) Peer() fabric.NodeID { return q.peer }

// Pending reports the number of undelivered messages in the local
// receive queue.
func (q *QPair) Pending() int { return q.recvQ.Len() }

// Send transmits size payload bytes to the peer, blocking the calling
// process for the software send path and, when flow control is enabled,
// until a credit is available.
func (q *QPair) Send(p *sim.Proc, size int, data any) {
	p.Sleep(q.ep.P.QPairSWSend)
	q.sendHW(p, size, data)
}

// SendHW transmits bypassing the software path — used where a kernel
// driver or hardware block owns the queue (the paper's VNIC back-end and
// accelerator mailboxes), whose costs are modeled by their own layers.
func (q *QPair) SendHW(p *sim.Proc, size int, data any) { q.sendHW(p, size, data) }

func (q *QPair) sendHW(p *sim.Proc, size int, data any) {
	if q.credits != nil {
		t0 := q.ep.Eng.Now()
		q.credits.Acquire(p)
		q.Stats.CreditStall += q.ep.Eng.Now().Sub(t0)
	}
	q.Stats.Sent++
	s := q.ep.qpSends.get()
	s.q = q
	s.m = qpMsg{dstQID: q.dst, seq: q.sendSeq, size: size, data: data, sent: q.ep.Eng.Now()}
	q.sendSeq++
	q.ep.Eng.Schedule(q.ep.P.QPairDoor, s.onRing)
}

// qpSend is one message waiting out the doorbell at its sender. Its life
// ends when the doorbell rings and the message leaves in a wire.
type qpSend struct {
	q      *QPair
	m      qpMsg
	onRing func()
}

// ring sends the message once the doorbell has rung.
func (s *qpSend) ring() {
	q, m := s.q, s.m
	s.q, s.m = nil, qpMsg{}
	q.ep.qpSends.put(s)
	send(&q.ep.qpMsgs, q.ep, q.peer, "qpair.msg", m.size, m)
}

// arrive accepts a message from the fabric, reordering as needed: with
// inter-channel collaboration packets may arrive out of order, which is
// why QPair messages carry sequence numbers (§5.1.3). m is valid only
// during the call, so a message parked for reordering is copied.
func (q *QPair) arrive(pkt *fabric.Packet, m *qpMsg) {
	if m.seq != q.expectSeq {
		q.Stats.OutOfOrder++
		q.reorder[m.seq] = *m
		return
	}
	q.release(pkt.Src, m)
	for {
		next, ok := q.reorder[q.expectSeq]
		if !ok {
			break
		}
		delete(q.reorder, q.expectSeq)
		q.release(pkt.Src, &next)
	}
}

// release hands one in-order message to the receive queue.
func (q *QPair) release(from fabric.NodeID, m *qpMsg) {
	q.expectSeq++
	q.Stats.Received++
	lat := q.ep.Eng.Now().Sub(m.sent)
	q.recvQ.TryPush(Message{From: from, Size: m.size, Data: m.data, Latency: lat})
}

// Recv blocks until a message is available, charges the software receive
// path, and handles credit returns.
func (q *QPair) Recv(p *sim.Proc) Message {
	msg := q.recvQ.Pop(p)
	p.Sleep(q.ep.P.QPairSWRecv)
	q.afterConsume(p)
	return msg
}

// RecvHW dequeues bypassing the software receive path — for consumers
// that are themselves drivers or hardware state machines (VNIC
// back-ends, flow-controlled stream sinks) whose costs are modeled by
// their own layers. Credit returns still apply.
func (q *QPair) RecvHW(p *sim.Proc) Message {
	msg := q.recvQ.Pop(p)
	q.afterConsume(p)
	return msg
}

// afterConsume accumulates consumed buffers and returns credits to the
// peer when a batch is full.
func (q *QPair) afterConsume(p *sim.Proc) {
	if q.cfg.Window == 0 {
		return
	}
	q.consumed++
	if q.consumed < q.cfg.creditBatch() {
		return
	}
	n := q.consumed
	q.consumed = 0
	q.Stats.CreditsSent++
	cr := qpCredit{dstQID: q.dst, credits: n}
	if q.cfg.CreditViaCRMA {
		// Collaborative path: a posted CRMA store into a dedicated,
		// overwriteable credit region — no software on either side.
		q.ep.CRMA.PostWrite(q.peer, creditRegionBase+uint64(q.id), 4, &cr)
		return
	}
	// Traditional path: a QPair control message — a lighter software
	// post than a data send, but still on the receiver's CPU and still a
	// full traversal of the channel's latency.
	p.Sleep(q.ep.P.QPairCreditSW)
	q.ep.Eng.Schedule(q.ep.P.QPairDoor, func() {
		send(&q.ep.qpCredits, q.ep, q.peer, "qpair.credit", 8, cr)
	})
}

// creditRegionBase is the conventional address of the credit mailbox
// region used by collaborative flow control. Posted credit writes carry
// their meaning in-band, so the exact value only namespaces the region.
const creditRegionBase uint64 = 0xC0DE_0000_0000

// addCredits releases n transmit credits.
func (q *QPair) addCredits(n int) {
	if q.credits == nil {
		return
	}
	for i := 0; i < n; i++ {
		q.credits.Release()
	}
}

// injectOutOfOrder exists for tests: it delivers a raw message envelope
// as if the fabric had reordered it.
func (q *QPair) injectOutOfOrder(from fabric.NodeID, m *qpMsg) { //nolint:unused
	q.arrive(&fabric.Packet{Src: from}, m)
}

// String identifies the pair endpoint.
func (q *QPair) String() string {
	return fmt.Sprintf("qp%d@%v->qp%d@%v", q.id, q.ep.ID, q.dst, q.peer)
}
