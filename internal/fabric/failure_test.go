package fabric

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDownLinkDropsAfterBoundedReplay(t *testing.T) {
	eng, net, logs := testNet(t, Pair())
	net.SetLinkDown(0, 1, true)
	eng.Schedule(0, func() {
		net.Send(&Packet{Src: 0, Dst: 1, Kind: "doomed", Size: 64})
	})
	eng.Run() // must terminate: replay is bounded
	if len(logs[1]) != 0 {
		t.Fatal("packet delivered over a down link")
	}
	s := net.Link(0, 1).Stats()
	if s.Replays < maxReplays {
		t.Fatalf("replays = %d, want the full bound %d", s.Replays, maxReplays)
	}
	if s.Replays > maxReplays+1 {
		t.Fatalf("replays = %d, exceeded the bound", s.Replays)
	}
}

func TestLinkRecoveryAfterRepair(t *testing.T) {
	eng, net, logs := testNet(t, Pair())
	net.SetLinkDown(0, 1, true)
	eng.Schedule(0, func() {
		net.Send(&Packet{Src: 0, Dst: 1, Kind: "lost", Size: 64})
	})
	// Repair the link long after the replay budget is spent, then send
	// fresh traffic.
	eng.Schedule(sim.Time(10*sim.Millisecond).Sub(0), func() {
		net.SetLinkDown(0, 1, false)
		net.Send(&Packet{Src: 0, Dst: 1, Kind: "fresh", Size: 64})
	})
	eng.Run()
	if len(logs[1]) != 1 || logs[1][0].pkt.Kind != "fresh" {
		t.Fatalf("after repair got %d deliveries", len(logs[1]))
	}
	if net.Link(0, 1).Down() {
		t.Fatal("link still marked down")
	}
}

func TestCreditsRecoveredAfterDrops(t *testing.T) {
	// A lost packet must return its datalink credit when the sender
	// gives up, or the link wedges forever.
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	p.LinkCredits = 2
	net := NewNetwork(eng, &p, Pair(), sim.NewRNG(5))
	got := 0
	net.SetDelivery(1, func(*Packet) { got++ })
	net.SetDelivery(0, func(*Packet) {})
	net.SetLinkDown(0, 1, true)
	eng.Schedule(0, func() {
		for i := 0; i < 4; i++ { // more than the credit budget
			net.Send(&Packet{Src: 0, Dst: 1, Kind: "lost", Size: 64})
		}
	})
	eng.RunFor(50 * sim.Millisecond)
	net.SetLinkDown(0, 1, false)
	eng.Schedule(0, func() {
		for i := 0; i < 8; i++ {
			net.Send(&Packet{Src: 0, Dst: 1, Kind: "fresh", Size: 64})
		}
	})
	eng.Run()
	if got != 8 {
		t.Fatalf("delivered %d fresh packets, want 8 (credits leaked?)", got)
	}
}

func TestHeavyCRCStormStillDelivers(t *testing.T) {
	eng, net, logs := testNet(t, Pair())
	net.SetErrorRate(0.45) // nearly half of all packets corrupted
	const n = 100
	eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			net.Send(&Packet{Src: 0, Dst: 1, Kind: "storm", Size: 128})
		}
	})
	eng.Run()
	if len(logs[1]) != n {
		t.Fatalf("delivered %d/%d under CRC storm", len(logs[1]), n)
	}
}

// Property: after ANY seeded sequence of link flaps on a 4- or 8-node
// mesh — overlapping outages, flaps mid-traffic, links cut while replay
// storms are in progress — a repaired topology delivers fresh packets
// between every node pair, and the bounded replay mechanism never
// livelocks the engine (Run terminates with a finite event count).
func TestLinkFlapStormProperty(t *testing.T) {
	prop := func(seed uint64, eight bool) bool {
		topo := Mesh3D(2, 2, 1)
		if eight {
			topo = Mesh3D(2, 2, 2)
		}
		eng, net, logs := testNet(t, topo)
		rng := sim.NewRNG(seed)

		// A seeded storm: flaps on random edges at random instants with
		// random outage lengths, interleaved with storm traffic between
		// random pairs. Storm packets crossing a down link are lost by
		// design (static routing, bounded replay) — the property is that
		// nothing wedges and repair restores full connectivity.
		flaps := 3 + rng.Intn(6)
		const flapWindow = 5 * sim.Millisecond
		for f := 0; f < flaps; f++ {
			e := topo.Edges[rng.Intn(len(topo.Edges))]
			at := sim.Dur(rng.Int63n(int64(flapWindow)))
			outage := sim.Dur(1 + rng.Int63n(int64(3*sim.Millisecond)))
			eng.Schedule(at, func() { net.SetLinkDown(e[0], e[1], true) })
			eng.Schedule(at+outage, func() { net.SetLinkDown(e[0], e[1], false) })
		}
		storm := 10 + rng.Intn(20)
		for s := 0; s < storm; s++ {
			src := NodeID(rng.Intn(topo.N))
			dst := NodeID(rng.Intn(topo.N))
			if src == dst {
				continue
			}
			at := sim.Dur(rng.Int63n(int64(flapWindow)))
			eng.Schedule(at, func() {
				net.Send(&Packet{Src: src, Dst: dst, Kind: "storm", Size: 64 + rng.Intn(1024)})
			})
		}
		// Belt and braces: force every link up after the storm, then send
		// one fresh packet along every ordered pair.
		const repairAt = 15 * sim.Millisecond
		eng.Schedule(repairAt, func() {
			for _, e := range topo.Edges {
				net.SetLinkDown(e[0], e[1], false)
			}
		})
		fresh := 0
		eng.Schedule(repairAt+sim.Millisecond, func() {
			for i := 0; i < topo.N; i++ {
				for j := 0; j < topo.N; j++ {
					if i != j {
						net.Send(&Packet{Src: NodeID(i), Dst: NodeID(j), Kind: "fresh", Size: 64})
						fresh++
					}
				}
			}
		})

		eng.Run() // must terminate: replay is bounded even under flap storms

		got := 0
		for i := range logs {
			for _, d := range logs[i] {
				if d.pkt.Kind == "fresh" {
					got++
				}
			}
		}
		if got != fresh {
			t.Logf("seed %d (eight=%v): %d/%d fresh deliveries after repair", seed, eight, got, fresh)
			return false
		}
		// The engine drained with no parked senders: nothing livelocked
		// or leaked a credit waiting on a dead ack.
		if eng.Pending() != 0 {
			t.Logf("seed %d: %d events still pending after Run", seed, eng.Pending())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: routing on a random connected topology (a random spanning
// tree plus extra edges) delivers between every sampled pair along a
// shortest path.
func TestRandomTopologyRoutingProperty(t *testing.T) {
	prop := func(seed uint64, sz uint8) bool {
		n := int(sz%10) + 3
		rng := sim.NewRNG(seed)
		topo := Topology{Name: "rand", N: n}
		// Spanning tree first (connectivity), then a few chords.
		for v := 1; v < n; v++ {
			topo.Edges = append(topo.Edges, [2]NodeID{NodeID(rng.Intn(v)), NodeID(v)})
		}
		for k := 0; k < n/2; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				topo.Edges = append(topo.Edges, [2]NodeID{NodeID(a), NodeID(b)})
			}
		}
		p := sim.Default()
		p.LinkPorts = 64 // random graphs can exceed the radix budget
		eng := sim.New()
		defer eng.Close()
		net := NewNetwork(eng, &p, topo, sim.NewRNG(1))
		type got struct {
			pkt *Packet
		}
		delivered := make(map[NodeID]*Packet)
		for i := 0; i < n; i++ {
			i := NodeID(i)
			net.SetDelivery(i, func(pkt *Packet) { delivered[i] = pkt })
		}
		src := NodeID(rng.Intn(n))
		dst := NodeID(rng.Intn(n))
		if src == dst {
			return true
		}
		eng.Schedule(0, func() {
			net.Send(&Packet{Src: src, Dst: dst, Kind: "prop", Size: 64})
		})
		eng.Run()
		pkt := delivered[dst]
		_ = got{}
		return pkt != nil && pkt.Hops == topo.HopCount(src, dst)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: hop counts are symmetric and satisfy the triangle
// inequality on the mesh.
func TestHopCountMetricProperties(t *testing.T) {
	topo := Mesh3D(2, 2, 2)
	prop := func(a, b, c uint8) bool {
		x, y, z := NodeID(a%8), NodeID(b%8), NodeID(c%8)
		if topo.HopCount(x, y) != topo.HopCount(y, x) {
			return false
		}
		return topo.HopCount(x, z) <= topo.HopCount(x, y)+topo.HopCount(y, z)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLossyLineGolden pins one lossy run exactly: a three-node line
// with CRC errors on the links into the middle node, a flap of 1<->2
// that catches packets both in flight and at transmit, and a flap of
// 0<->1 long enough for senders to give up on replaying packets. Every
// a-packet also gets a shadow send on its first link, aimed by an event
// scheduled during the packet's flight at the instant its replay timer
// fires: when the packet is corrupted, its timer ties with a send that
// has a credit waiting, so a timer armed later than transmit would lose
// the tie and reorder the line. The delivery log, timestamps and link
// counters were captured from the hop path that kept per-hop closures
// and pendingAck/replays maps, and must not move.
func TestLossyLineGolden(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	p.LinkCredits = 4
	net := NewNetwork(eng, &p, Line(3), sim.NewRNG(11))
	net.Link(0, 1).SetErrorRate(0.3)
	net.Link(2, 1).SetErrorRate(0.3)
	var got []string
	for i := 0; i < 3; i++ {
		id := NodeID(i)
		net.SetDelivery(id, func(pkt *Packet) {
			got = append(got, fmt.Sprintf("%v<-%v %s%d@%d", id, pkt.Src, pkt.Kind, pkt.Payload, int64(eng.Now())))
		})
	}
	send := func(src, dst NodeID, kind string, k int) {
		net.Send(&Packet{Src: src, Dst: dst, Kind: kind, Size: 512, Payload: k})
	}
	// On an idle link a packet sent at t has its replay timer at
	// t + serialization + fixed flight out and back + empty ack + timeout.
	fixed := 2*p.PhyLatency + p.Propagation
	timerAfterSend := p.Serialize(512) + 2*fixed + p.Serialize(0) + p.ReplayTO
	for k := 0; k < 10; k++ {
		k := k
		at := sim.Dur(k) * 5 * sim.Microsecond
		eng.Schedule(at, func() {
			send(0, 2, "a", k)
			send(2, 0, "b", k)
		})
		eng.Schedule(at+sim.Microsecond, func() {
			eng.Schedule(timerAfterSend-sim.Microsecond, func() { send(0, 1, "s", k) })
		})
	}
	for k := 0; k < 4; k++ {
		k := k
		eng.Schedule(250*sim.Microsecond+sim.Dur(k)*3*sim.Microsecond, func() {
			send(0, 2, "c", k)
			send(2, 0, "d", k)
		})
	}
	eng.Schedule(9*sim.Microsecond, func() { net.SetLinkDown(1, 2, true) })
	eng.Schedule(30*sim.Microsecond, func() { net.SetLinkDown(1, 2, false) })
	eng.Schedule(40*sim.Microsecond, func() { net.SetLinkDown(0, 1, true) })
	eng.Schedule(230*sim.Microsecond, func() { net.SetLinkDown(0, 1, false) })
	eng.Run()

	want := []string{
		"n0<-n2 b0@4490", "n1<-n0 s0@16361", "n1<-n0 s1@21361", "n1<-n0 s2@26361",
		"n1<-n0 s3@30516", "n2<-n0 a0@31032", "n0<-n2 b3@32761", "n2<-n0 a5@34503",
		"n2<-n0 a1@36032", "n0<-n2 b5@36877", "n0<-n2 b4@37761", "n2<-n0 a6@37974",
		"n2<-n0 a4@39503", "n2<-n0 a2@41032", "n2<-n0 a8@234400", "n1<-n0 s8@235626",
		"n2<-n0 a9@238716", "n0<-n2 b7@239413", "n1<-n0 s7@239942", "n0<-n2 b9@240258",
		"n1<-n0 s6@247852", "n0<-n2 d0@254490", "n2<-n0 c1@257490", "n2<-n0 c2@260490",
		"n0<-n2 d3@263490", "n1<-n0 s9@266361", "n2<-n0 c0@267761", "n0<-n2 d1@270761",
		"n2<-n0 c3@276761", "n0<-n2 d2@300303",
	}
	if len(got) != len(want) {
		t.Fatalf("%d deliveries, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %q, want %q\ngot: %v", i, got[i], want[i], got)
		}
	}
	wantStats := map[[2]NodeID]LinkStats{
		{0, 1}: {Packets: 89, Bytes: 45568, Corrupted: 12, Replays: 65, CreditStall: 9, BusyTime: 75205},
		{1, 0}: {Packets: 58, Bytes: 29696, Corrupted: 0, Replays: 44, CreditStall: 2, BusyTime: 49010},
		{1, 2}: {Packets: 16, Bytes: 8192, Corrupted: 0, Replays: 4, CreditStall: 2, BusyTime: 13520},
		{2, 1}: {Packets: 29, Bytes: 14848, Corrupted: 10, Replays: 15, CreditStall: 3, BusyTime: 24505},
	}
	for e, want := range wantStats {
		if got := net.Link(e[0], e[1]).Stats(); got != want {
			t.Errorf("link %v->%v stats %+v, want %+v", e[0], e[1], got, want)
		}
	}
}
