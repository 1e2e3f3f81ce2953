// Package transport implements Venice's transport-layer remote access
// channels (§5.1.2 of the paper): the CRMA channel for cacheline-grained
// remote memory access through load/store instructions, the RDMA channel
// for software-initiated bulk transfers, and the QPair channel for
// user-level message passing — plus the inter-channel collaboration
// mechanism (§5.1.3) that carries QPair flow-control credits over CRMA.
package transport

import (
	"fmt"
	"sync"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Kind names one RPC call kind. A kind is declared once, with NewKind,
// which resolves its name to a small index: an endpoint keeps its
// handlers in a slice by that index, so serving a call hashes nothing.
// A Kind is one pointer, so a request's wire stays small. The zero Kind
// names no call.
type Kind struct{ decl *kindDecl }

// kindDecl is one declared kind: its name and its handler index.
type kindDecl struct {
	name string
	idx  int
}

// kinds holds every declared kind, by name.
var kinds struct {
	sync.Mutex
	byName map[string]*kindDecl
}

// NewKind declares the call kind named name. Declaring a name again
// returns the same kind. Declare each kind once, in a package-level
// variable, and register and call it by that variable.
func NewKind(name string) Kind {
	kinds.Lock()
	defer kinds.Unlock()
	if kinds.byName == nil {
		kinds.byName = make(map[string]*kindDecl)
	}
	d, ok := kinds.byName[name]
	if !ok {
		d = &kindDecl{name: name, idx: len(kinds.byName) + 1}
		kinds.byName[name] = d
	}
	return Kind{d}
}

// String returns the kind's name, which names its service procs.
func (k Kind) String() string {
	if k.decl == nil {
		return ""
	}
	return k.decl.name
}

// index is the kind's slot in an endpoint's handler table; the zero
// Kind's is 0, which no declared kind takes.
func (k Kind) index() int {
	if k.decl == nil {
		return 0
	}
	return k.decl.idx
}

// CallHandler services an RPC registered with HandleCall. It runs inside
// a simulated process of its own, started where the request arrives, so
// it may block (sleep, touch memory, send nested calls). It returns the
// response payload and its wire size, which is sent when it returns.
type CallHandler func(p *sim.Proc, from fabric.NodeID, req any) (resp any, respSize int)

// InlineHandler services an RPC registered with HandleInline: one that
// cannot block, since it is given no process. It runs as a plain
// callback in the event that would have started a CallHandler's
// process, and its response is sent in that same event.
type InlineHandler func(from fabric.NodeID, req any) (resp any, respSize int)

// callHandler is one call kind's registration: exactly one of call and
// inline is set.
type callHandler struct {
	call   CallHandler
	inline InlineHandler
}

// Endpoint is one node's Venice transport interface: the hardware block
// that terminates the three channels and demultiplexes arriving packets.
type Endpoint struct {
	Eng *sim.Engine
	P   *sim.Params
	Net *fabric.Network
	ID  fabric.NodeID

	CRMA *CRMA
	RDMA *RDMA

	qpairs    map[int]*QPair
	calls     []callHandler // by Kind index
	pending   pendingTable[rpcCall]
	callRecs  freeList[rpcCall]
	serveRecs freeList[rpcService]
	reqWires  wireList[rpcReq]
	respWires wireList[rpcResp]
	notes     wireList[notice]
	qpSends   freeList[qpSend]
	qpMsgs    wireList[qpMsg]
	qpCredits wireList[qpCredit]
}

// freeList recycles one kind of per-operation record. fresh builds a
// record and binds its event handlers, once. A record comes back only in
// the event that ends its life, so no scheduled handler finds it reused;
// one cut short (KillWindow, CRMA.Reset, Engine.Close) is left to the GC.
type freeList[T any] struct {
	fresh func() *T
	free  []*T
}

func (l *freeList[T]) get() *T {
	n := len(l.free)
	if n == 0 {
		return l.fresh()
	}
	r := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return r
}

func (l *freeList[T]) put(r *T) { l.free = append(l.free, r) }

// wire is one packet and the message it carries, in one allocation.
// The packet's Payload points at the wire, so deliver finds it, hands
// the handler a pointer to the message, and puts it back on home.
type wire[M any] struct {
	pkt  fabric.Packet
	msg  M
	home *wireList[M]
	idle bool // on home's free list
}

// wireList recycles the wires of one message type. The channel that
// sends the type owns the list, and a wire goes back to the list it
// came from, whichever endpoint delivered it, so each list stays
// balanced.
type wireList[M any] struct{ free []*wire[M] }

func (l *wireList[M]) get() *wire[M] {
	n := len(l.free)
	if n == 0 {
		return &wire[M]{home: l}
	}
	w := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	w.idle = false
	return w
}

// release puts a delivered or dropped wire back on its list, unless a
// link holds its packet (fabric.Packet.Held): that link may still
// transmit the packet again, so it is left to the GC. Releasing a wire
// that is already on its list panics.
func (w *wire[M]) release() {
	if w.pkt.Held() {
		return
	}
	if w.idle {
		panic(fmt.Sprintf("transport: %v released twice", &w.pkt))
	}
	var zero M
	w.msg, w.idle = zero, true
	w.home.free = append(w.home.free, w)
}

// send injects a packet carrying m, in a wire taken from l, the sending
// channel's list for m's type. The receiver's handler gets a pointer to
// the message that is valid only until it returns, since deliver then
// puts the wire back: a handler copies whatever outlives it. A wire is
// reused only once the fabric is done with its packet: a packet is
// delivered at most once, and one a link armed a replay timer for may
// still be transmitted again, so a wire whose packet a link held is
// never put back.
func send[M any](l *wireList[M], ep *Endpoint, dst fabric.NodeID, kind string, size int, m M) {
	w := l.get()
	w.pkt = fabric.Packet{Src: ep.ID, Dst: dst, Kind: kind, Size: size, Payload: w}
	w.msg = m
	ep.Net.Send(&w.pkt)
}

// rpcCall is one outstanding call at its caller. Its life ends when
// CallTimeout returns, or when CallFunc's continuation is called. The
// record keeps its Completion for its whole life, re-armed at the start
// of each call: by the time a record goes back, its watchdog is revoked
// and its pending slot emptied, so nothing can complete it again.
type rpcCall struct {
	ep        *Endpoint
	id        uint64
	done      *sim.Completion
	watchdog  sim.Handle
	then      func(resp any, ok bool) // CallFunc's continuation; nil under CallTimeout
	resp      any
	timedOut  bool
	onTimeout func()
	onWake    func()
}

// timeout is a call's watchdog.
func (c *rpcCall) timeout() {
	if !c.done.Done() {
		c.timedOut = true
		c.wake()
	}
}

// wake ends the call's wait, the first time the reply or the watchdog
// calls it. Completing done schedules CallTimeout's proc to resume at
// the current instant; CallFunc's continuation is scheduled instead, in
// that same slot.
func (c *rpcCall) wake() {
	if c.done.Done() {
		return
	}
	c.done.Complete()
	if c.then != nil {
		c.ep.Eng.Schedule(0, c.onWake)
	}
}

// finish is CallFunc's wake event: it ends the call and hands the
// result to the continuation.
func (c *rpcCall) finish() {
	then := c.then
	then(c.end())
}

// end ends the call once it has woken and returns what the caller gets:
// the response, or (nil, false) if the watchdog fired first. When the
// response wins the race, the watchdog is revoked instead of left to
// fire later as a dead callback: every monitor heartbeat, grant, and
// recovery RPC otherwise leaves a tombstone event churning through the
// queue. Nor does a watchdog outlive its record.
func (c *rpcCall) end() (any, bool) {
	ep := c.ep
	ep.Eng.Cancel(c.watchdog)
	ep.pending.remove(c.id)
	resp, ok := c.resp, !c.timedOut
	c.resp, c.watchdog, c.then = nil, sim.Handle{}, nil
	ep.callRecs.put(c)
	if !ok {
		return nil, false
	}
	return resp, true
}

// rpcService services one incoming call, in a proc of its own or, for
// an inline handler, in one event. Its life ends with the proc or the
// event.
type rpcService struct {
	ep        *Endpoint
	h         callHandler
	from      fabric.NodeID
	id        uint64
	body      any
	run       func(p *sim.Proc)
	runInline func()
}

// serve is the service proc: run the handler and reply.
func (s *rpcService) serve(p *sim.Proc) {
	s.reply(s.h.call(p, s.from, s.body))
}

// serveInline is the service event of an inline handler.
func (s *rpcService) serveInline() {
	s.reply(s.h.inline(s.from, s.body))
}

// reply sends the handler's response and ends the record's life.
func (s *rpcService) reply(resp any, size int) {
	send(&s.ep.respWires, s.ep, s.from, "rpc.resp", size, rpcResp{id: s.id, body: resp})
	s.h, s.body = callHandler{}, nil
	s.ep.serveRecs.put(s)
}

// rpcReq and rpcResp are the wire envelopes of the generic RPC helper
// used by the runtime layers (monitor, accelerator, NIC drivers).
type rpcReq struct {
	id   uint64
	kind Kind
	body any
}

type rpcResp struct {
	id   uint64
	body any
}

// NewEndpoint attaches a transport endpoint to node id on the network.
func NewEndpoint(eng *sim.Engine, p *sim.Params, net *fabric.Network, id fabric.NodeID) *Endpoint {
	ep := &Endpoint{
		Eng:    eng,
		P:      p,
		Net:    net,
		ID:     id,
		qpairs: make(map[int]*QPair),
	}
	ep.callRecs.fresh = func() *rpcCall {
		c := &rpcCall{ep: ep, done: sim.NewCompletion(eng)}
		c.onTimeout, c.onWake = c.timeout, c.finish
		return c
	}
	ep.serveRecs.fresh = func() *rpcService {
		s := &rpcService{ep: ep}
		s.run, s.runInline = s.serve, s.serveInline
		return s
	}
	ep.qpSends.fresh = func() *qpSend {
		s := &qpSend{}
		s.onRing = s.ring
		return s
	}
	ep.CRMA = newCRMA(ep)
	ep.RDMA = newRDMA(ep)
	net.SetDelivery(id, ep.deliver)
	net.SetDrop(dropped)
	return ep
}

// dropped is the network's drop sink: a packet a crashed node's switch
// dropped never reaches deliver, so its wire goes back on its list
// here, unless a link holds the packet for replay (see wire.release).
// A switch drops a packet at most once and never delivers it, so a
// dropped request that no link holds is never read: if its body has an
// Unread method, dropped calls it, once, and the caller may reuse the
// body.
func dropped(pkt *fabric.Packet) {
	if w, ok := pkt.Payload.(*wire[rpcReq]); ok && !pkt.Held() {
		if b, ok := w.msg.body.(interface{ Unread() }); ok {
			b.Unread()
		}
	}
	if w, ok := pkt.Payload.(interface{ release() }); ok {
		w.release()
	}
}

// HandleCall registers an RPC service for a call kind, served in a proc
// of its own. Registering a kind again replaces its handler, of either
// type.
func (ep *Endpoint) HandleCall(kind Kind, h CallHandler) { ep.handle(kind, callHandler{call: h}) }

// HandleInline registers an RPC service that cannot block for a call
// kind. It is served without a proc, in the event a CallHandler's proc
// would have started in, so every event it and its reply schedule keeps
// its place in the firing order. Registering a kind again replaces its
// handler, of either type.
func (ep *Endpoint) HandleInline(kind Kind, h InlineHandler) {
	ep.handle(kind, callHandler{inline: h})
}

// handle files h as kind's handler, growing the table to reach it.
func (ep *Endpoint) handle(kind Kind, h callHandler) {
	i := kind.index()
	if n := i + 1; n > len(ep.calls) {
		ep.calls = append(ep.calls, make([]callHandler, n-len(ep.calls))...)
	}
	ep.calls[i] = h
}

// notice is a one-way notice on the wire: its delivery calls set(from,
// arg) at the receiver.
type notice struct {
	set func(from fabric.NodeID, arg uint64)
	arg uint64
}

// Notify sends a one-way notice of size bytes to dst at once: the event
// that delivers it at dst calls set with the sender and arg. set belongs
// to the receiver, and a sender learns it from the request the notice
// answers, as an accelerator mailbox's start request names where the
// recipient's completion flag is. The notice rides a recycled wire, so
// a warm one allocates nothing when set is a value its owner keeps,
// such as a method value bound once.
func (ep *Endpoint) Notify(dst fabric.NodeID, kind string, size int, set func(from fabric.NodeID, arg uint64), arg uint64) {
	send(&ep.notes, ep, dst, kind, size, notice{set: set, arg: arg})
}

// CallTimeout performs a blocking RPC to kind on dst: a request of
// reqSize bytes, answered by the handler registered for kind there. It
// is the control-plane primitive of the resource-management runtime;
// data-plane traffic uses the three channels directly. If no response
// arrives within timeout (of virtual time), it returns (nil, false) and
// a late response is silently dropped; this is what lets the runtime
// survive peers that crash while servicing a request. A timeout of zero
// waits forever, which parks the caller for good if dst is dead.
func (ep *Endpoint) CallTimeout(p *sim.Proc, dst fabric.NodeID, kind Kind, reqSize int, body any, timeout sim.Dur) (any, bool) {
	call := ep.call(dst, kind, reqSize, body, timeout, nil)
	p.Await(call.done)
	return call.end()
}

// CallFunc is CallTimeout for a caller that is not a proc: it returns
// at once, and done later receives exactly what CallTimeout would have
// returned, in an event in the slot where CallTimeout's proc would
// have resumed, so every event keeps its (time, seq). done must not
// block. A warm call allocates nothing when done is a value the caller
// keeps, such as a method value bound once.
func (ep *Endpoint) CallFunc(dst fabric.NodeID, kind Kind, reqSize int, body any, timeout sim.Dur, done func(resp any, ok bool)) {
	ep.call(dst, kind, reqSize, body, timeout, done)
}

// call sends a call's request and arms its watchdog: the start that
// CallTimeout and CallFunc share.
func (ep *Endpoint) call(dst fabric.NodeID, kind Kind, reqSize int, body any, timeout sim.Dur, then func(any, bool)) *rpcCall {
	c := ep.callRecs.get()
	c.id = ep.pending.add(c)
	c.done.Rearm()
	c.timedOut, c.then = false, then
	send(&ep.reqWires, ep, dst, "rpc.req", reqSize, rpcReq{id: c.id, kind: kind, body: body})
	if timeout > 0 {
		c.watchdog = ep.Eng.ScheduleCancelable(timeout, c.onTimeout)
	}
	return c
}

// deliver demultiplexes an arriving packet to its channel or handler,
// then puts a wire back on its sender's list.
func (ep *Endpoint) deliver(pkt *fabric.Packet) {
	switch w := pkt.Payload.(type) {
	case *wire[crmaReq]:
		ep.CRMA.handleReq(pkt, &w.msg)
		w.release()
	case *wire[crmaResp]:
		ep.CRMA.handleResp(&w.msg)
		w.release()
	case *wire[crmaPosted]:
		ep.CRMA.handlePosted(&w.msg)
		w.release()
	case *wire[rdmaReq]:
		ep.RDMA.handleReq(pkt, &w.msg)
		w.release()
	case *wire[rdmaChunk]:
		ep.RDMA.handleChunk(pkt, &w.msg)
		w.release()
	case *wire[rpcReq]:
		ep.handleRPC(pkt, &w.msg)
		w.release()
	case *wire[rpcResp]:
		ep.handleResp(&w.msg)
		w.release()
	case *wire[notice]:
		w.msg.set(pkt.Src, w.msg.arg)
		w.release()
	case *wire[qpMsg]:
		ep.deliverQP(pkt, &w.msg)
		w.release()
	case *wire[qpCredit]:
		ep.creditQP(&w.msg)
		w.release()
	default:
		panic(fmt.Sprintf("transport: node %v: no handler for %v", ep.ID, pkt))
	}
}

// handleResp completes the call a response answers; a response whose
// caller vanished or timed out is dropped.
func (ep *Endpoint) handleResp(m *rpcResp) {
	if call := ep.pending.get(m.id); call != nil {
		call.resp = m.body
		call.wake()
	}
}

// handleRPC services a call and replies: in a process of its own, named
// by the call's kind, or, for an inline handler, in an event scheduled
// exactly where that process's first resume would have been.
func (ep *Endpoint) handleRPC(pkt *fabric.Packet, req *rpcReq) {
	var h callHandler
	if i := req.kind.index(); i < len(ep.calls) {
		h = ep.calls[i]
	}
	if h.call == nil && h.inline == nil {
		panic(fmt.Sprintf("transport: node %v: no call handler %q", ep.ID, req.kind))
	}
	s := ep.serveRecs.get()
	s.h, s.from, s.id, s.body = h, pkt.Src, req.id, req.body
	if h.inline != nil {
		ep.Eng.Schedule(0, s.runInline)
		return
	}
	ep.Eng.Spawn(req.kind.String(), s.run)
}

// deliverQP routes an arriving QPair message to its local queue pair.
func (ep *Endpoint) deliverQP(pkt *fabric.Packet, m *qpMsg) {
	qp, ok := ep.qpairs[m.dstQID]
	if !ok {
		panic(fmt.Sprintf("transport: node %v: unknown qpair %d", ep.ID, m.dstQID))
	}
	qp.arrive(pkt, m)
}

// creditQP routes a wire credit update to its local queue pair's
// hardware state machine (the sender-side cost of QPair-path credits is
// the receiver's software send plus the wire, already paid upstream).
func (ep *Endpoint) creditQP(m *qpCredit) {
	qp, ok := ep.qpairs[m.dstQID]
	if !ok {
		return // pair torn down; stale credit
	}
	n := m.credits
	ep.Eng.Schedule(ep.P.QPairDoor, func() { qp.addCredits(n) })
}
