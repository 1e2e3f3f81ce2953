package fabric

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// checkLinksAtRest fails tb unless every link between net's switches is
// back at rest once the engine has drained: all of Params.LinkCredits
// at the sender, no send waiting for one, nothing in flight. The clock
// first moves on to the last credit return still queued on a link, as
// far as an event-per-return engine would have run, so every queued
// return has passed and is applied. A return that is neither applied
// nor made an event would leave its link a credit short, and a long
// enough burst would then wedge it.
func checkLinksAtRest(tb testing.TB, net *Network) {
	tb.Helper()
	if n := net.Eng.Pending(); n != 0 {
		tb.Fatalf("engine not drained: %d events pending", n)
	}
	last := net.Eng.Now()
	net.links(func(l *Link) {
		if l.returns.len() > 0 && l.returns.tail().At() > last {
			last = l.returns.tail().At()
		}
	})
	net.Eng.RunUntil(last)
	net.links(func(l *Link) {
		l.applyReturns()
		if l.credits != l.p.LinkCredits || l.returns.len() != 0 || l.waitQ.len() != 0 || l.inflight.len() != 0 {
			tb.Fatalf("link %s at rest holds %d of %d credits, %d queued returns, %d waiting sends, %d in flight",
				l.name, l.credits, l.p.LinkCredits, l.returns.len(), l.waitQ.len(), l.inflight.len())
		}
	})
}

// TestCreditReturnTiesGolden pins a healthy three-node line with two
// credits per link through the credit-return cases whose order matters:
//
//   - a send at exactly the instant of a credit return, from an event
//     queued before the arrival that scheduled the return (the send
//     stalls: the credit is not back yet), and another from an event
//     queued after it (the credit is back);
//   - bursts in both directions that stall and drain over two hops;
//   - a bandwidth change while packets are in flight, so a later
//     arrival's return lands before an earlier one's, then sends
//     between the two returns.
//
// The delivery log, timestamps and link counters were captured from the
// hop path that scheduled every credit return as an event, and must not
// move.
func TestCreditReturnTiesGolden(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	p.LinkCredits = 2
	net := NewNetwork(eng, &p, Line(3), sim.NewRNG(3))
	var got []string
	for i := 0; i < 3; i++ {
		id := NodeID(i)
		net.SetDelivery(id, func(pkt *Packet) {
			got = append(got, fmt.Sprintf("%v<-%v %s%d@%d", id, pkt.Src, pkt.Kind, pkt.Payload, int64(eng.Now())))
		})
	}
	send := func(src, dst NodeID, kind string, k int) {
		net.Send(&Packet{Src: src, Dst: dst, Kind: kind, Size: 64, Payload: k})
	}
	// On an idle link a packet sent at t arrives at t + serialization +
	// fixed flight, and its credit is back a switch traversal and an
	// empty ack's flight later.
	fixed := 2*p.PhyLatency + p.Propagation
	arrival := p.Serialize(64) + fixed
	creditBack := arrival + p.SwitchLat + fixed + p.Serialize(0)

	// Tie, sender first: both credits of 0->1 go at 0; the send at the
	// first packet's return instant was queued at 0, before the arrival.
	eng.Schedule(0, func() {
		send(0, 1, "p", 0)
		send(0, 1, "p", 1)
		eng.Schedule(creditBack, func() { send(0, 1, "x", 0) })
	})
	// Tie, return first: the send at the return instant is queued just
	// after the arrival.
	const tieAfter = 10 * sim.Microsecond
	eng.Schedule(tieAfter, func() {
		send(0, 1, "q", 0)
		send(0, 1, "q", 1)
	})
	eng.Schedule(tieAfter+arrival+1, func() {
		eng.Schedule(creditBack-arrival-1, func() { send(0, 1, "y", 0) })
	})
	// Bursts both ways across both hops, stalling on every link.
	const burst = 20 * sim.Microsecond
	eng.Schedule(burst, func() {
		for k := 0; k < 8; k++ {
			send(0, 2, "f", k)
			send(2, 0, "r", k)
		}
	})
	// Returns out of order on 1->2: a arrives while the link is slow, so
	// its empty ack serializes slowly; b arrives after the rate is back
	// and its credit returns first. c and d are sent between the two
	// returns: c takes b's credit, d waits for a's.
	const reorder = 40 * sim.Microsecond
	l12 := net.Link(1, 2)
	eng.Schedule(reorder, func() {
		l12.SetGbps(0.1)
		send(1, 2, "a", 0)
	})
	eng.Schedule(reorder+100, func() {
		l12.SetGbps(0)
		send(1, 2, "b", 0)
	})
	slow := p.SerializeAt(64, 0.1)
	aArrives := reorder + slow + fixed
	eng.Schedule(aArrives-100, func() { l12.SetGbps(0.1) })
	eng.Schedule(aArrives+50, func() { l12.SetGbps(0) })
	bReturns := aArrives + p.Serialize(64) + p.SwitchLat + fixed + p.Serialize(0)
	eng.Schedule(bReturns+300, func() {
		send(1, 2, "c", 0)
		send(1, 2, "d", 0)
	})
	eng.Run()

	want := []string{
		"n1<-n0 p0@1528", "n1<-n0 p1@1656", "n1<-n0 x0@4282", "n1<-n0 q0@11528",
		"n1<-n0 q1@11656", "n1<-n0 y0@14282", "n2<-n0 f0@23056", "n0<-n2 r0@23056",
		"n2<-n0 f1@23184", "n0<-n2 r1@23184", "n2<-n0 f2@25810", "n0<-n2 r2@25810",
		"n2<-n0 f3@25938", "n0<-n2 r3@25938", "n2<-n0 f4@28564", "n0<-n2 r4@28564",
		"n2<-n0 f5@28692", "n0<-n2 r5@28692", "n2<-n0 f6@31318", "n0<-n2 r6@31318",
		"n2<-n0 f7@31446", "n0<-n2 r7@31446", "n2<-n1 a0@47800", "n2<-n1 b0@47928",
		"n2<-n1 c0@50982", "n2<-n1 d0@51808",
	}
	if len(got) != len(want) {
		t.Fatalf("%d deliveries, want %d:\n%q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %q, want %q\ngot: %q", i, got[i], want[i], got)
		}
	}
	wantStats := map[[2]NodeID]LinkStats{
		{0, 1}: {Packets: 14, Bytes: 896, CreditStall: 7, BusyTime: 1792},
		{1, 0}: {Packets: 8, Bytes: 512, BusyTime: 1024},
		{1, 2}: {Packets: 12, Bytes: 768, CreditStall: 1, BusyTime: 7808},
		{2, 1}: {Packets: 8, Bytes: 512, CreditStall: 6, BusyTime: 1024},
	}
	for _, e := range [][2]NodeID{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if got := net.Link(e[0], e[1]).Stats(); got != wantStats[e] {
			t.Errorf("link %v->%v stats %#v, want %#v", e[0], e[1], got, wantStats[e])
		}
	}
	checkLinksAtRest(t, net)
}
