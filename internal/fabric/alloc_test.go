package fabric

import (
	"testing"

	"repro/internal/sim"
)

// hopRig is a five-node line whose links have hopCredits credits, with
// a burst of reusable packets in each direction.
type hopRig struct {
	tb   testing.TB
	eng  *sim.Engine
	net  *Network
	pkts []*Packet
}

// hopCredits is the hop rig's Params.LinkCredits.
const hopCredits = 4

// newHopRig builds the rig with burst packets each way. A burst above
// hopCredits stalls on credits and exercises the wait queue; one within
// it never waits for a credit.
func newHopRig(tb testing.TB, burst int) *hopRig {
	eng := sim.New()
	p := sim.Default()
	p.LinkCredits = hopCredits
	net := NewNetwork(eng, &p, Line(5), sim.NewRNG(1))
	for i := 0; i < 5; i++ {
		net.SetDelivery(NodeID(i), func(*Packet) {})
	}
	r := &hopRig{tb: tb, eng: eng, net: net}
	for i := 0; i < burst; i++ {
		r.pkts = append(r.pkts,
			&Packet{Src: 0, Dst: 4, Kind: "fwd", Size: 256},
			&Packet{Src: 4, Dst: 0, Kind: "rev", Size: 256})
	}
	return r
}

// hops reports how many link hops one exchange forwards.
func (r *hopRig) hops() int { return len(r.pkts) * 4 }

// exchange sends the burst and runs the engine until every packet is
// delivered, then checks that every link is back at rest.
func (r *hopRig) exchange() {
	for _, pkt := range r.pkts {
		pkt.Hops = 0
		r.net.Send(pkt)
	}
	r.eng.Run()
	checkLinksAtRest(r.tb, r.net)
}

// TestHopSteadyStateZeroAlloc is the hop path's pooling gate: once the
// engine pool, the link and switch FIFOs and the delivery counters are
// warm, forwarding a packet across a link and a switch allocates
// nothing, both with bursts that stall on credits and with bursts that
// stay within them. The packets are the test's own and are reused.
func TestHopSteadyStateZeroAlloc(t *testing.T) {
	for _, burst := range []int{2 * hopCredits, hopCredits} {
		r := newHopRig(t, burst)
		// Warm-up: enough virtual time for every timing-wheel bucket the
		// exchange's events land in to have grown its capacity.
		for i := 0; i < 5000; i++ {
			r.exchange()
		}
		switch stalls := r.net.TotalLinkStats().CreditStall; {
		case burst > hopCredits && stalls == 0:
			t.Fatalf("burst %d never stalled on credits; the wait queue went unexercised", burst)
		case burst <= hopCredits && stalls != 0:
			t.Fatalf("burst %d within %d credits stalled %d times", burst, hopCredits, stalls)
		}
		if allocs := testing.AllocsPerRun(200, r.exchange); allocs != 0 {
			t.Fatalf("steady-state exchange of %d hops allocates %.2f/op, want 0", r.hops(), allocs)
		}
		r.eng.Close()
	}
}
