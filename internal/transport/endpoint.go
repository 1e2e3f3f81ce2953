// Package transport implements Venice's transport-layer remote access
// channels (§5.1.2 of the paper): the CRMA channel for cacheline-grained
// remote memory access through load/store instructions, the RDMA channel
// for software-initiated bulk transfers, and the QPair channel for
// user-level message passing — plus the inter-channel collaboration
// mechanism (§5.1.3) that carries QPair flow-control credits over CRMA.
package transport

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// memService is the donor-side memory time to serve a remote access of
// size bytes, load or store alike: one DRAM access, plus a quarter of
// one per 64 B burst beyond the first. Remote requests do not touch the
// donor's caches: the paper's single-subscriber model gives the region
// to exactly one owner, and the donor's own accesses to it have been
// hot-removed.
func memService(p *sim.Params, size int) sim.Dur {
	bursts := max((size+63)/64, 1)
	return p.DRAMLat + sim.Dur(bursts-1)*(p.DRAMLat/4)
}

// Handler processes an incoming raw packet addressed to a registered kind.
type Handler func(pkt *fabric.Packet)

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
	handlers  map[string]Handler
	calls     map[string]callHandler
	pending   map[uint64]*rpcCall
	nextID    uint64
	rpcKinds  map[string]string // call kind -> "rpc."+kind, built once per kind
	callRecs  freeList[rpcCall]
	serveRecs freeList[rpcService]
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

// send injects a packet carrying m inside its own allocation: one object
// per message, and the receiver's handler gets a pointer into it. Packets
// are not recycled: the fabric may deliver one twice, and a handler may
// keep its payload.
func send[M any](ep *Endpoint, dst fabric.NodeID, kind string, size int, m M) {
	w := &struct {
		pkt fabric.Packet
		msg M
	}{pkt: fabric.Packet{Src: ep.ID, Dst: dst, Kind: kind, Size: size}, msg: m}
	w.pkt.Payload = &w.msg
	ep.Net.Send(&w.pkt)
}

// rpcCall is one outstanding call at its caller. Its life ends when
// CallTimeout returns. The record keeps its Completion for its whole
// life, re-armed at the start of each call: by the time a record goes
// back, its watchdog is revoked and its pending entry deleted, so
// nothing can complete it again.
type rpcCall struct {
	done      *sim.Completion
	resp      any
	timedOut  bool
	onTimeout func()
}

// timeout is a call's watchdog.
func (c *rpcCall) timeout() {
	if !c.done.Done() {
		c.timedOut = true
		c.done.Complete()
	}
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
	send(s.ep, s.from, "rpc.resp", size, rpcResp{id: s.id, body: resp})
	s.h, s.body = callHandler{}, nil
	s.ep.serveRecs.put(s)
}

// rpcReq and rpcResp are the wire envelopes of the generic RPC helper
// used by the runtime layers (monitor, accelerator, NIC drivers).
type rpcReq struct {
	id   uint64
	kind string
	body any
}

type rpcResp struct {
	id   uint64
	body any
}

// NewEndpoint attaches a transport endpoint to node id on the network.
func NewEndpoint(eng *sim.Engine, p *sim.Params, net *fabric.Network, id fabric.NodeID) *Endpoint {
	ep := &Endpoint{
		Eng:      eng,
		P:        p,
		Net:      net,
		ID:       id,
		qpairs:   make(map[int]*QPair),
		handlers: make(map[string]Handler),
		calls:    make(map[string]callHandler),
		pending:  make(map[uint64]*rpcCall),
		rpcKinds: make(map[string]string),
	}
	ep.callRecs.fresh = func() *rpcCall {
		c := &rpcCall{done: sim.NewCompletion(eng)}
		c.onTimeout = c.timeout
		return c
	}
	ep.serveRecs.fresh = func() *rpcService {
		s := &rpcService{ep: ep}
		s.run, s.runInline = s.serve, s.serveInline
		return s
	}
	ep.CRMA = newCRMA(ep)
	ep.RDMA = newRDMA(ep)
	net.SetDelivery(id, ep.deliver)
	return ep
}

// Handle registers a raw packet handler for a packet kind.
func (ep *Endpoint) Handle(kind string, h Handler) { ep.handlers[kind] = h }

// HandleCall registers an RPC service for a call kind, served in a proc
// of its own. Registering a kind again replaces its handler, of either
// type.
func (ep *Endpoint) HandleCall(kind string, h CallHandler) { ep.calls[kind] = callHandler{call: h} }

// HandleInline registers an RPC service that cannot block for a call
// kind. It is served without a proc, in the event a CallHandler's proc
// would have started in, so every event it and its reply schedule keeps
// its place in the firing order. Registering a kind again replaces its
// handler, of either type.
func (ep *Endpoint) HandleInline(kind string, h InlineHandler) {
	ep.calls[kind] = callHandler{inline: h}
}

// SendRaw injects an arbitrary packet from this endpoint.
func (ep *Endpoint) SendRaw(dst fabric.NodeID, kind string, size int, payload any) {
	ep.Net.Send(&fabric.Packet{Src: ep.ID, Dst: dst, Kind: kind, Size: size, Payload: payload})
}

// Call performs a blocking RPC to kind on dst: request of reqSize bytes,
// response produced by the remote CallHandler. It is the control-plane
// primitive used by the resource-management runtime; data-plane traffic
// uses the three channels directly.
func (ep *Endpoint) Call(p *sim.Proc, dst fabric.NodeID, kind string, reqSize int, body any) any {
	resp, _ := ep.CallTimeout(p, dst, kind, reqSize, body, 0)
	return resp
}

// CallTimeout is Call with a deadline: if no response arrives within
// timeout (of virtual time), it returns (nil, false) and a late response
// is silently dropped. A timeout of zero waits forever. This is what
// lets the resource-management runtime survive peers that crash while
// servicing a request — a plain Call to a dead node parks its caller
// permanently.
func (ep *Endpoint) CallTimeout(p *sim.Proc, dst fabric.NodeID, kind string, reqSize int, body any, timeout sim.Dur) (any, bool) {
	id := ep.nextID
	ep.nextID++
	call := ep.callRecs.get()
	call.done.Rearm()
	call.timedOut = false
	ep.pending[id] = call
	send(ep, dst, ep.rpcKind(kind), reqSize, rpcReq{id: id, kind: kind, body: body})
	var watchdog sim.Handle
	if timeout > 0 {
		watchdog = ep.Eng.ScheduleCancelable(timeout, call.onTimeout)
	}
	p.Await(call.done)
	// When the response wins the race, revoke the watchdog instead of
	// letting it fire later as a dead callback: every monitor heartbeat,
	// grant, and recovery RPC otherwise leaves a tombstone event churning
	// through the queue. Nor does a watchdog outlive its record.
	ep.Eng.Cancel(watchdog)
	delete(ep.pending, id)
	resp, ok := call.resp, !call.timedOut
	call.resp = nil
	ep.callRecs.put(call)
	if !ok {
		return nil, false
	}
	return resp, true
}

// rpcKind returns the packet kind, and service proc name, of a call
// kind: "rpc."+kind, built the first time the kind is seen rather than
// on every call.
func (ep *Endpoint) rpcKind(kind string) string {
	k, ok := ep.rpcKinds[kind]
	if !ok {
		k = "rpc." + kind
		ep.rpcKinds[kind] = k
	}
	return k
}

// deliver demultiplexes an arriving packet to its channel or handler.
func (ep *Endpoint) deliver(pkt *fabric.Packet) {
	switch m := pkt.Payload.(type) {
	case *crmaReq:
		ep.CRMA.handleReq(pkt, m)
	case *crmaResp:
		ep.CRMA.handleResp(m)
	case *crmaPosted:
		ep.CRMA.handlePosted(pkt, m)
	case *rdmaReq:
		ep.RDMA.handleReq(pkt, m)
	case *rdmaChunk:
		ep.RDMA.handleChunk(pkt, m)
	case *qpMsg:
		ep.deliverQP(pkt, m)
	case *qpCredit:
		ep.creditQP(m)
	case *rpcReq:
		ep.handleRPC(pkt, m)
	case *rpcResp:
		call, ok := ep.pending[m.id]
		if !ok {
			return // caller vanished or timed out; drop
		}
		call.resp = m.body
		call.done.Complete()
	default:
		h, ok := ep.handlers[pkt.Kind]
		if !ok {
			panic(fmt.Sprintf("transport: node %v: no handler for %v", ep.ID, pkt))
		}
		h(pkt)
	}
}

// handleRPC services a call and replies: in a process of its own, or,
// for an inline handler, in an event scheduled exactly where that
// process's first resume would have been.
func (ep *Endpoint) handleRPC(pkt *fabric.Packet, req *rpcReq) {
	h, ok := ep.calls[req.kind]
	if !ok {
		panic(fmt.Sprintf("transport: node %v: no call handler %q", ep.ID, req.kind))
	}
	s := ep.serveRecs.get()
	s.h, s.from, s.id, s.body = h, pkt.Src, req.id, req.body
	if h.inline != nil {
		ep.Eng.Schedule(0, s.runInline)
		return
	}
	ep.Eng.Go(ep.rpcKind(req.kind), s.run)
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
	ep.Eng.Schedule(ep.P.QPairDoor, func() { qp.addCredits(m.credits) })
}
