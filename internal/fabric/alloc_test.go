package fabric

import (
	"testing"

	"repro/internal/sim"
)

// hopRig is a five-node line with a burst of reusable packets in each
// direction — more than the link's credits, so the exchange also
// exercises credit stalls and the wait queue.
type hopRig struct {
	eng  *sim.Engine
	net  *Network
	pkts []*Packet
}

func newHopRig() *hopRig {
	eng := sim.New()
	p := sim.Default()
	p.LinkCredits = 4
	net := NewNetwork(eng, &p, Line(5), sim.NewRNG(1))
	for i := 0; i < 5; i++ {
		net.SetDelivery(NodeID(i), func(*Packet) {})
	}
	r := &hopRig{eng: eng, net: net}
	for i := 0; i < 8; i++ {
		r.pkts = append(r.pkts,
			&Packet{Src: 0, Dst: 4, Kind: "fwd", Size: 256},
			&Packet{Src: 4, Dst: 0, Kind: "rev", Size: 256})
	}
	return r
}

// hopsPerExchange is how many link hops one exchange forwards.
const hopsPerExchange = 16 * 4

// exchange sends the burst and runs the engine until every packet is
// delivered and every credit is back.
func (r *hopRig) exchange() {
	for _, pkt := range r.pkts {
		pkt.Hops = 0
		r.net.Send(pkt)
	}
	r.eng.Run()
}

// TestHopSteadyStateZeroAlloc is the hop path's pooling gate: once the
// engine pool, the link and switch FIFOs and the delivery counters are
// warm, forwarding a packet across a link and a switch allocates
// nothing. The packets are the test's own and are reused.
func TestHopSteadyStateZeroAlloc(t *testing.T) {
	r := newHopRig()
	defer r.eng.Close()
	// Warm-up: enough virtual time for every timing-wheel bucket the
	// exchange's events land in to have grown its capacity.
	for i := 0; i < 5000; i++ {
		r.exchange()
	}
	if stalls := r.net.TotalLinkStats().CreditStall; stalls == 0 {
		t.Fatal("the exchange never stalled on credits; the wait queue went unexercised")
	}
	if allocs := testing.AllocsPerRun(200, r.exchange); allocs != 0 {
		t.Fatalf("steady-state exchange of %d hops allocates %.2f/op, want 0", hopsPerExchange, allocs)
	}
}
