package fabric

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// delivery records one packet arrival and its timestamp.
type delivery struct {
	pkt *Packet
	at  sim.Time
}

// testNet builds a network over topo with a per-node delivery log.
// Delivery timestamps are captured at arrival because the engine keeps
// running housekeeping events (replay timers) after the last delivery.
func testNet(t *testing.T, topo Topology) (*sim.Engine, *Network, [][]delivery) {
	t.Helper()
	eng := sim.New()
	t.Cleanup(eng.Close)
	p := sim.Default()
	net := NewNetwork(eng, &p, topo, sim.NewRNG(1))
	logs := make([][]delivery, topo.N)
	for i := 0; i < topo.N; i++ {
		i := i
		net.SetDelivery(NodeID(i), func(pkt *Packet) {
			logs[i] = append(logs[i], delivery{pkt, eng.Now()})
		})
	}
	return eng, net, logs
}

func TestOneHopLatencyMatchesTable1(t *testing.T) {
	eng, net, logs := testNet(t, Pair())
	eng.Schedule(0, func() {
		net.Send(&Packet{Src: 0, Dst: 1, Kind: "test", Size: 64})
	})
	eng.Run()
	if len(logs[1]) != 1 {
		t.Fatal("packet not delivered")
	}
	p := sim.Default()
	// Fixed hop latency 1.4µs + serialization of 64B+16B header at 5Gbps.
	want := sim.Time(p.HopLatency() + p.Serialize(64))
	if got := logs[1][0].at; got != want {
		t.Fatalf("delivered at %v, want %v", got, want)
	}
}

func TestMultiHopLatencyScalesWithHops(t *testing.T) {
	eng, net, logs := testNet(t, Line(4))
	eng.Schedule(0, func() {
		net.Send(&Packet{Src: 0, Dst: 3, Kind: "test", Size: 64})
	})
	eng.Run()
	if len(logs[3]) != 1 {
		t.Fatal("packet not delivered")
	}
	if logs[3][0].pkt.Hops != 3 {
		t.Fatalf("Hops = %d, want 3", logs[3][0].pkt.Hops)
	}
	p := sim.Default()
	want := sim.Time(3 * (p.HopLatency() + p.Serialize(64)))
	if got := logs[3][0].at; got != want {
		t.Fatalf("3-hop delivery at %v, want %v", got, want)
	}
}

func TestBandwidthSerializesBackToBackPackets(t *testing.T) {
	eng, net, logs := testNet(t, Pair())
	const npkt = 10
	eng.Schedule(0, func() {
		for i := 0; i < npkt; i++ {
			net.Send(&Packet{Src: 0, Dst: 1, Kind: "bulk", Size: 4096})
		}
	})
	eng.Run()
	if len(logs[1]) != npkt {
		t.Fatalf("delivered %d, want %d", len(logs[1]), npkt)
	}
	p := sim.Default()
	// Last packet leaves the serializer after npkt serialization times.
	want := sim.Time(sim.Dur(npkt)*p.Serialize(4096) + p.HopLatency())
	got := logs[1][npkt-1].at
	if got < want-1 || got > want+1 {
		t.Fatalf("last delivery at %v, want ~%v", got, want)
	}
	link := net.Link(0, 1)
	if link.Stats().Packets != npkt {
		t.Fatalf("link packets = %d", link.Stats().Packets)
	}
	if link.Stats().Bytes != npkt*4096 {
		t.Fatalf("link bytes = %d", link.Stats().Bytes)
	}
}

func TestMeshTopologyShape(t *testing.T) {
	topo := Mesh3D(2, 2, 2)
	if topo.N != 8 {
		t.Fatalf("N = %d", topo.N)
	}
	// A 2x2x2 mesh has 12 edges; every node has degree 3.
	if len(topo.Edges) != 12 {
		t.Fatalf("edges = %d, want 12", len(topo.Edges))
	}
	for i := 0; i < topo.N; i++ {
		if d := len(topo.NeighborsOf(NodeID(i))); d != 3 {
			t.Fatalf("node %d degree = %d, want 3", i, d)
		}
	}
	// Opposite corners are 3 hops apart.
	if got := topo.HopCount(0, 7); got != 3 {
		t.Fatalf("HopCount(0,7) = %d, want 3", got)
	}
	if got := topo.HopCount(0, 0); got != 0 {
		t.Fatalf("HopCount(0,0) = %d, want 0", got)
	}
}

func TestMeshRoutingDeliversAllPairs(t *testing.T) {
	eng, net, logs := testNet(t, Mesh3D(2, 2, 2))
	eng.Schedule(0, func() {
		for s := 0; s < 8; s++ {
			for d := 0; d < 8; d++ {
				if s == d {
					continue
				}
				net.Send(&Packet{Src: NodeID(s), Dst: NodeID(d), Kind: "allpairs", Size: 64})
			}
		}
	})
	eng.Run()
	for d := 0; d < 8; d++ {
		if len(logs[d]) != 7 {
			t.Fatalf("node %d received %d packets, want 7", d, len(logs[d]))
		}
		for _, dl := range logs[d] {
			pkt := dl.pkt
			if pkt.Dst != NodeID(d) {
				t.Fatalf("misdelivered %v to node %d", pkt, d)
			}
			if want := net.HopCount(pkt.Src, pkt.Dst); pkt.Hops != want {
				t.Fatalf("%v took %d hops, want shortest path %d", pkt, pkt.Hops, want)
			}
		}
	}
}

func TestRouterInsertionAddsLatency(t *testing.T) {
	p := sim.Default()

	direct := func() sim.Time {
		eng, net, logs := testNet(t, Pair())
		eng.Schedule(0, func() { net.Send(&Packet{Src: 0, Dst: 1, Kind: "t", Size: 64}) })
		eng.Run()
		return logs[1][0].at
	}()

	routed := func() sim.Time {
		eng, net, logs := testNet(t, Pair())
		r := net.InsertRouter(0, 1)
		eng.Schedule(0, func() { net.Send(&Packet{Src: 0, Dst: 1, Kind: "t", Size: 64}) })
		eng.Run()
		if r.Forwarded() != 1 {
			t.Fatalf("router forwarded %d, want 1", r.Forwarded())
		}
		return logs[1][0].at
	}()

	if routed <= direct {
		t.Fatalf("routed path %v not slower than direct %v", routed, direct)
	}
	// Expected penalty: one extra serialization, one extra node+retimer PHY
	// pair, and the router traversal.
	wantDelta := sim.Dur(routed - direct)
	expect := p.Serialize(64) + 2*p.RouterPhy + p.RouterLat
	if wantDelta != expect {
		t.Fatalf("router delta = %v, want %v", wantDelta, expect)
	}
	// The paper observes >20%% overhead for CRMA round trips; sanity-check
	// the one-way inflation is in a plausible band (20–60%%).
	ratio := float64(routed) / float64(direct)
	if ratio < 1.2 || ratio > 1.6 {
		t.Fatalf("routed/direct = %.2f, want within [1.2,1.6]", ratio)
	}
}

// TestRouterHalfLinksCounted checks that the network-wide link walk
// reaches a router's outgoing half-links: one packet across a routed
// pair crosses two links, and SetErrorRate reaches all four half-links.
func TestRouterHalfLinksCounted(t *testing.T) {
	eng, net, logs := testNet(t, Pair())
	net.InsertRouter(0, 1)
	eng.Schedule(0, func() { net.Send(&Packet{Src: 0, Dst: 1, Kind: "t", Size: 64}) })
	eng.Run()
	if len(logs[1]) != 1 {
		t.Fatal("packet not delivered")
	}
	if got := net.TotalLinkStats().Packets; got != 2 {
		t.Fatalf("one routed packet counted %d link packets, want 2", got)
	}
	net.SetErrorRate(0.25)
	var reached []string
	net.links(func(l *Link) {
		if l.errRate == 0.25 {
			reached = append(reached, l.Name())
		}
	})
	want := []string{"n0->R", "n1->R", "R->n1", "R->n0"}
	if !slices.Equal(reached, want) {
		t.Fatalf("SetErrorRate reached %v, want %v", reached, want)
	}
}

func TestOffChipInterfaceAddsCrossings(t *testing.T) {
	p := sim.Default()
	run := func(offchip bool) sim.Time {
		eng, net, logs := testNet(t, Pair())
		if offchip {
			net.Switch(0).SetOffChip(true)
			net.Switch(1).SetOffChip(true)
		}
		eng.Schedule(0, func() { net.Send(&Packet{Src: 0, Dst: 1, Kind: "t", Size: 64}) })
		eng.Run()
		return logs[1][0].at
	}
	on, off := run(false), run(true)
	if got, want := sim.Dur(off-on), 2*p.OffChipCrossing; got != want {
		t.Fatalf("off-chip delta = %v, want %v (inject + deliver)", got, want)
	}
}

func TestCRCReplayDeliversEverythingEventually(t *testing.T) {
	eng, net, logs := testNet(t, Pair())
	net.SetErrorRate(0.2)
	const npkt = 200
	eng.Schedule(0, func() {
		for i := 0; i < npkt; i++ {
			net.Send(&Packet{Src: 0, Dst: 1, Kind: "lossy", Size: 256})
		}
	})
	eng.Run()
	if len(logs[1]) != npkt {
		t.Fatalf("delivered %d, want %d despite errors", len(logs[1]), npkt)
	}
	s := net.Link(0, 1).Stats()
	if s.Corrupted == 0 {
		t.Fatal("no corruption observed at 20% error rate")
	}
	if s.Replays < s.Corrupted {
		t.Fatalf("replays %d < corrupted %d", s.Replays, s.Corrupted)
	}
}

func TestCreditStallsUnderBurst(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	p.LinkCredits = 2
	net := NewNetwork(eng, &p, Pair(), sim.NewRNG(1))
	got := 0
	net.SetDelivery(1, func(*Packet) { got++ })
	eng.Schedule(0, func() {
		for i := 0; i < 50; i++ {
			net.Send(&Packet{Src: 0, Dst: 1, Kind: "burst", Size: 4096})
		}
	})
	eng.Run()
	if got != 50 {
		t.Fatalf("delivered %d, want 50", got)
	}
	if net.Link(0, 1).Stats().CreditStall == 0 {
		t.Fatal("expected credit stalls with 2 credits and a 50-packet burst")
	}
	checkLinksAtRest(t, net)
}

func TestLinkUtilizationUnderSaturation(t *testing.T) {
	eng, net, _ := testNet(t, Pair())
	eng.Schedule(0, func() {
		for i := 0; i < 100; i++ {
			net.Send(&Packet{Src: 0, Dst: 1, Kind: "sat", Size: 65536})
		}
	})
	eng.Run()
	u := net.Link(0, 1).Utilization()
	if u < 0.9 || u > 1.0 {
		t.Fatalf("utilization = %.3f, want near 1 under saturation", u)
	}
}

func TestStarAndFullMeshTopologies(t *testing.T) {
	star := Star(5)
	if star.HopCount(1, 2) != 2 {
		t.Fatalf("star leaf-to-leaf hops = %d, want 2", star.HopCount(1, 2))
	}
	full := FullMesh(5)
	if full.HopCount(1, 4) != 1 {
		t.Fatalf("full mesh hops = %d, want 1", full.HopCount(1, 4))
	}
}

func TestDisconnectedTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("building a disconnected network did not panic")
		}
	}()
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	NewNetwork(eng, &p, Topology{Name: "disc", N: 3, Edges: [][2]NodeID{{0, 1}}}, nil)
}

func TestPortBudgetEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("exceeding the port budget did not panic")
		}
	}()
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	p.LinkPorts = 3
	NewNetwork(eng, &p, FullMesh(5), nil) // degree 4 > 3 ports
}
