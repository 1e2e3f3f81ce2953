package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// DeliverFunc receives packets destined for a node's local port; the
// transport layer registers one per node.
type DeliverFunc func(*Packet)

// Switch is the low-dimension switch embedded in each Venice processor
// (§5.1.1): a handful of external ports plus one local port, enabling
// "switchless" direct chip-to-chip communication without an intermediary
// switch module.
type Switch struct {
	eng *sim.Engine
	p   *sim.Params

	id    NodeID
	lat   sim.Dur
	next  []int32 // this node's row of the topology's next-hop table, shared
	port  []*Link // port[nb] is the outgoing link toward neighbor nb
	deg   int     // external ports in use
	local DeliverFunc
	// drop receives every packet the switch drops while down (see
	// Network.SetDrop); nil drops them silently.
	drop DeliverFunc

	// transit holds the packets traversing the switch, in receive
	// order. Every traversal takes the same lat, so traversals finish in
	// the order they started and each traversal event pops the head.
	transit    fifo[*Packet]
	onTraverse func() // cached handler; see Link.onArrive

	// Extra per-direction latency modeling interface placement: zero for
	// on-chip interface logic, Params.OffChipCrossing when the Venice
	// interface sits across the I/O bus (Figs. 5-6 off-chip configs).
	injectExtra  sim.Dur
	deliverExtra sim.Dur

	// down models the node having crashed: the embedded switch neither
	// injects, forwards, nor delivers. The wires to a crashed node stay
	// modeled independently (their PHYs still ack at the datalink layer),
	// so link faults compose orthogonally with node faults.
	down bool

	delivered int64
	forwarded int64
}

func newSwitch(eng *sim.Engine, p *sim.Params, id NodeID, next []int32) *Switch {
	s := &Switch{
		eng:  eng,
		p:    p,
		id:   id,
		lat:  p.SwitchLat,
		next: next,
		port: make([]*Link, len(next)),
	}
	s.onTraverse = s.traverse
	return s
}

// Degree reports the number of external ports in use.
func (s *Switch) Degree() int { return s.deg }

// SetOffChip moves this node's fabric interface across the I/O bus: every
// injection and local delivery pays one extra Params.OffChipCrossing.
func (s *Switch) SetOffChip(offChip bool) {
	if offChip {
		s.injectExtra = s.p.OffChipCrossing
		s.deliverExtra = s.p.OffChipCrossing
	} else {
		s.injectExtra = 0
		s.deliverExtra = 0
	}
}

// SetDown marks the node crashed (every packet touching the switch is
// dropped) or restores it. In-flight packets already scheduled into the
// switch vanish as if power was cut mid-traversal.
func (s *Switch) SetDown(down bool) { s.down = down }

// IsDown reports whether the node is marked crashed.
func (s *Switch) IsDown() bool { return s.down }

// Inject sends a packet from this node's local port into the fabric.
func (s *Switch) Inject(pkt *Packet) {
	if pkt.Src != s.id {
		panic(fmt.Sprintf("fabric: inject at %v of packet from %v", s.id, pkt.Src))
	}
	if s.down {
		s.discard(pkt)
		return
	}
	if s.injectExtra > 0 {
		s.eng.Schedule(s.injectExtra, func() { s.route(pkt) })
		return
	}
	s.route(pkt)
}

// receive implements the link receiver: one switch traversal, then route.
func (s *Switch) receive(pkt *Packet, _ *Link) {
	pkt.Hops++
	s.transit.push(pkt)
	s.eng.Schedule(s.lat, s.onTraverse)
}

// traverse routes the packet whose switch traversal just finished.
func (s *Switch) traverse() { s.route(s.transit.pop()) }

// route forwards a packet toward its destination or delivers it locally.
func (s *Switch) route(pkt *Packet) {
	if s.down {
		s.discard(pkt)
		return
	}
	if pkt.Dst == s.id {
		if s.deliverExtra > 0 {
			s.eng.Schedule(s.deliverExtra, func() { s.deliver(pkt) })
			return
		}
		s.deliver(pkt)
		return
	}
	if uint(pkt.Dst) >= uint(len(s.next)) {
		panic(fmt.Sprintf("fabric: node %v has no route to %v", s.id, pkt.Dst))
	}
	s.forwarded++
	s.port[s.next[pkt.Dst]].send(pkt)
}

// deliver hands a packet to the node's local port.
func (s *Switch) deliver(pkt *Packet) {
	// The node can crash between route() and a deliverExtra-delayed
	// delivery; power-cut semantics mean the packet dies with it.
	if s.down {
		s.discard(pkt)
		return
	}
	if s.local == nil {
		panic(fmt.Sprintf("fabric: node %v has no delivery handler for %v", s.id, pkt))
	}
	s.delivered++
	s.local(pkt)
}

// discard hands a packet the crashed switch drops to the drop sink.
func (s *Switch) discard(pkt *Packet) {
	if s.drop != nil {
		s.drop(pkt)
	}
}

// Router is an external one-level switch module inserted between two
// directly-connected nodes — the Fig. 6 experiment. It is a
// bump-in-the-wire: traffic arriving from one side leaves on the other
// after the router traversal latency.
type Router struct {
	eng  *sim.Engine
	p    *sim.Params
	name string
	lat  sim.Dur
	// in and out are the router's half-links: a packet arriving on in[i]
	// leaves on out[i], the outgoing link on the far side.
	in, out [2]*Link

	forwarded int64
}

func newRouter(eng *sim.Engine, p *sim.Params, name string) *Router {
	return &Router{eng: eng, p: p, name: name, lat: p.RouterLat}
}

// Forwarded reports how many packets crossed the router.
func (r *Router) Forwarded() int64 { return r.forwarded }

// receive implements the link receiver for the router.
func (r *Router) receive(pkt *Packet, from *Link) {
	pkt.Hops++
	var outLink *Link
	switch from {
	case r.in[0]:
		outLink = r.out[0]
	case r.in[1]:
		outLink = r.out[1]
	default:
		panic("fabric: router received packet on unknown link")
	}
	r.forwarded++
	r.eng.Schedule(r.lat, func() { outLink.send(pkt) })
}
