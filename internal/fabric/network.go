package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// Network assembles switches and links according to a topology and
// offers packet injection and delivery registration to the transport
// layer above.
type Network struct {
	Eng  *sim.Engine
	P    *sim.Params
	Topo Topology

	switches []*Switch
	routers  []*Router
	rng      *sim.RNG
}

// NewNetwork builds the fabric for a topology. Per-node delivery handlers
// must be registered with SetDelivery before traffic flows to that node.
func NewNetwork(eng *sim.Engine, p *sim.Params, topo Topology, rng *sim.RNG) *Network {
	topo.rt = topo.tables()
	n := &Network{
		Eng:  eng,
		P:    p,
		Topo: topo,
		rng:  rng,
	}
	size := topo.N
	for i := 0; i < size; i++ {
		n.switches = append(n.switches, newSwitch(eng, p, NodeID(i), topo.rt.next[i*size:(i+1)*size]))
	}
	for _, e := range topo.Edges {
		n.connect(e[0], e[1])
		n.connect(e[1], e[0])
	}
	for i, hop := range topo.rt.hops {
		if hop < 0 {
			panic(fmt.Sprintf("fabric: topology %s is disconnected (no path %d->%d)", topo.Name, i/size, i%size))
		}
	}
	for _, s := range n.switches {
		if s.Degree() > p.LinkPorts {
			panic(fmt.Sprintf("fabric: node %v needs %d ports, switch has %d",
				s.id, s.Degree(), p.LinkPorts))
		}
	}
	return n
}

// connect creates the unidirectional link a->b.
func (n *Network) connect(a, b NodeID) {
	name := fmt.Sprintf("%v->%v", a, b)
	var lrng *sim.RNG
	if n.rng != nil {
		lrng = n.rng.Fork()
	}
	n.switches[a].port[b] = newLink(n.Eng, n.P, name, n.switches[b], lrng)
	n.switches[a].deg++
}

// Switch returns the embedded switch of node id.
func (n *Network) Switch(id NodeID) *Switch { return n.switches[id] }

// Link returns the unidirectional link from a to b, or nil if the nodes
// are not directly connected.
func (n *Network) Link(a, b NodeID) *Link {
	if uint(a) >= uint(len(n.switches)) || uint(b) >= uint(len(n.switches)) {
		return nil
	}
	return n.switches[a].port[b]
}

// links calls fn on every link: each switch's ports in node and
// neighbor order (a port moved onto a router is the half-link into it),
// then each router's two outgoing half-links in insertion order.
func (n *Network) links(fn func(*Link)) {
	for _, s := range n.switches {
		for _, nb := range n.Topo.NeighborsOf(s.id) {
			fn(s.port[nb])
		}
	}
	for _, r := range n.routers {
		for _, l := range r.out {
			fn(l)
		}
	}
}

// SetDelivery registers the local-port handler for node id.
func (n *Network) SetDelivery(id NodeID, fn DeliverFunc) { n.switches[id].local = fn }

// SetDrop registers the sink for every packet a crashed node's switch
// drops (see SetNodeDown): injections, transit traffic and local
// deliveries alike, each once. A link may still hold a dropped packet
// for replay (Packet.Held). The transport layer installs one sink, to
// take back what the packets carry; nil drops packets silently.
func (n *Network) SetDrop(fn DeliverFunc) {
	for _, s := range n.switches {
		s.drop = fn
	}
}

// Send injects a packet into the fabric at its source node.
func (n *Network) Send(pkt *Packet) {
	if int(pkt.Src) >= len(n.switches) || pkt.Src < 0 {
		panic(fmt.Sprintf("fabric: send from unknown node %v", pkt.Src))
	}
	n.switches[pkt.Src].Inject(pkt)
}

// HopCount reports shortest-path hops between two nodes.
func (n *Network) HopCount(a, b NodeID) int { return n.Topo.HopCount(a, b) }

// pair calls fn on every half-link of the a<->b link: both directions
// and, once InsertRouter has put a router on the link, the router's two
// outgoing half-links after them.
func (n *Network) pair(a, b NodeID, fn func(*Link)) {
	ab, ba := n.Link(a, b), n.Link(b, a)
	for _, l := range [2]*Link{ab, ba} {
		if l != nil {
			fn(l)
		}
	}
	if ab == nil {
		return
	}
	if r, ok := ab.to.(*Router); ok {
		for _, l := range r.out {
			fn(l)
		}
	}
}

// SetLinkGbps overrides the serial bandwidth of both directions of the
// a<->b link, router half-links included (0 restores the global
// Params.LinkGbps). Hierarchical topologies use it to model
// oversubscribed spine uplinks.
func (n *Network) SetLinkGbps(a, b NodeID, gbps float64) {
	if n.Link(a, b) == nil && n.Link(b, a) == nil {
		panic(fmt.Sprintf("fabric: no link %v<->%v to set bandwidth on", a, b))
	}
	n.pair(a, b, func(l *Link) { l.SetGbps(gbps) })
}

// SetLinkDown fails or restores both directions of the a<->b link,
// router half-links included.
func (n *Network) SetLinkDown(a, b NodeID, down bool) {
	n.pair(a, b, func(l *Link) { l.SetDown(down) })
}

// SetNodeDown crashes or restores node id: while down, the node's
// embedded switch drops every packet it touches — injections, transit
// traffic being forwarded through it, and local deliveries. Links to the
// node are untouched (their PHYs still ack at the datalink layer), so a
// concurrent SetLinkDown composes independently.
func (n *Network) SetNodeDown(id NodeID, down bool) {
	if int(id) >= len(n.switches) || id < 0 {
		panic(fmt.Sprintf("fabric: SetNodeDown of unknown node %v", id))
	}
	n.switches[id].SetDown(down)
}

// NodeDown reports whether node id is currently marked crashed.
func (n *Network) NodeDown(id NodeID) bool { return n.switches[id].IsDown() }

// SetErrorRate applies CRC fault injection to every link.
func (n *Network) SetErrorRate(r float64) {
	n.links(func(l *Link) { l.SetErrorRate(r) })
}

// InsertRouter replaces the direct links between a and b with a
// one-level external router, reproducing the indirect-network
// configuration of §4.2.2 (Fig. 6). The nodes' routing tables are
// unchanged: the router is a bump in the wire, so only the two switches'
// ports toward each other move onto it.
func (n *Network) InsertRouter(a, b NodeID) *Router {
	if n.Link(a, b) == nil || n.Link(b, a) == nil {
		panic(fmt.Sprintf("fabric: no direct link %v<->%v to route through", a, b))
	}
	r := newRouter(n.Eng, n.P, fmt.Sprintf("router(%v,%v)", a, b))
	var rrngA, rrngB, rrngC, rrngD *sim.RNG
	if n.rng != nil {
		rrngA, rrngB = n.rng.Fork(), n.rng.Fork()
		rrngC, rrngD = n.rng.Fork(), n.rng.Fork()
	}
	// Each half-link crosses one full node SerDes and one router retimer,
	// over half the original cable length.
	halfFixed := n.P.PhyLatency + n.P.RouterPhy + n.P.Propagation/2
	// a -> router -> b
	aToR := newLink(n.Eng, n.P, fmt.Sprintf("%v->R", a), r, rrngA)
	rToB := newLink(n.Eng, n.P, "R->"+b.String(), n.switches[b], rrngB)
	// b -> router -> a
	bToR := newLink(n.Eng, n.P, fmt.Sprintf("%v->R", b), r, rrngC)
	rToA := newLink(n.Eng, n.P, "R->"+a.String(), n.switches[a], rrngD)
	for _, l := range []*Link{aToR, rToB, bToR, rToA} {
		l.fixed = halfFixed
	}
	r.in = [2]*Link{aToR, bToR}
	r.out = [2]*Link{rToB, rToA}
	n.switches[a].port[b] = aToR
	n.switches[b].port[a] = bToR
	n.routers = append(n.routers, r)
	return r
}

// TotalLinkStats sums the counters over all links.
func (n *Network) TotalLinkStats() LinkStats {
	var total LinkStats
	n.links(func(l *Link) {
		s := l.Stats()
		total.Packets += s.Packets
		total.Bytes += s.Bytes
		total.Corrupted += s.Corrupted
		total.Replays += s.Replays
		total.CreditStall += s.CreditStall
		total.BusyTime += s.BusyTime
	})
	return total
}
