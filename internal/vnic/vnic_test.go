package vnic

import (
	"runtime"
	"testing"

	"repro/internal/fabric"
	"repro/internal/node"
	"repro/internal/sim"
)

func makeNodes(tb testing.TB, n int) (*sim.Engine, sim.Params, []*node.Node) {
	tb.Helper()
	eng := sim.New()
	tb.Cleanup(eng.Close)
	p := sim.Default()
	net := fabric.NewNetwork(eng, &p, fabric.Star(n), sim.NewRNG(3))
	nodes := make([]*node.Node, n)
	for i := range nodes {
		nodes[i] = node.New(eng, &p, net, fabric.NodeID(i), 1<<30)
	}
	return eng, p, nodes
}

func TestNICFraming(t *testing.T) {
	eng, p, _ := makeNodes(t, 2)
	n := NewNIC(eng, &p, "eth0")
	// A 4B payload pads to the 46B minimum + 38B overhead = 84B at 1Gbps.
	if got, want := n.FrameTime(4), sim.Dur(84*8); got != want {
		t.Fatalf("FrameTime(4) = %v, want %v", got, want)
	}
	// 256B payload: (256+38)*8 ns.
	if got, want := n.FrameTime(256), sim.Dur(294*8); got != want {
		t.Fatalf("FrameTime(256) = %v, want %v", got, want)
	}
}

func TestNICSerializesFrames(t *testing.T) {
	eng, p, _ := makeNodes(t, 2)
	n := NewNIC(eng, &p, "eth0")
	d1 := n.Enqueue(1000)
	d2 := n.Enqueue(1000)
	if d2.Sub(d1) != n.FrameTime(1000) {
		t.Fatalf("frames not serialized: %v then %v", d1, d2)
	}
	if n.PktsTx != 2 || n.BytesTx != 2000 {
		t.Fatalf("stats: %d pkts %d bytes", n.PktsTx, n.BytesTx)
	}
}

// measure sends pkts packets of size bytes over a bond built from the
// recipient's local NIC and the given number of remote NICs, returning
// payload throughput in bytes/sec.
func measure(t *testing.T, remotes int, size, pkts int) float64 {
	t.Helper()
	eng, p, nodes := makeNodes(t, 5)
	recipient := nodes[0]
	local := NewNIC(eng, &p, "eth0")
	slaves := []Slave{&LocalSlave{NIC: local}}
	for i := 0; i < remotes; i++ {
		donor := nodes[i+1]
		dn := NewNIC(eng, &p, "eth0@"+donor.String())
		slaves = append(slaves, AttachRemote(recipient, donor, dn))
	}
	bond := NewBond(&p, slaves...)
	recipient.Run("iperf", func(pr *sim.Proc) {
		for i := 0; i < pkts; i++ {
			bond.Send(pr, size)
		}
	})
	eng.RunFor(30 * sim.Second)
	elapsed := bond.Drained()
	if elapsed == 0 {
		t.Fatal("nothing transmitted")
	}
	return float64(bond.BytesTx) / sim.Dur(elapsed).Seconds()
}

func TestRemoteNICsScaleFor256BPackets(t *testing.T) {
	base := measure(t, 0, 256, 4000)
	three := measure(t, 3, 256, 4000)
	ratio := three / base
	// Fig. 16b: ~85% of the ideal 4x for 256B packets.
	if ratio < 2.8 || ratio > 4.0 {
		t.Fatalf("LN+3RN / LN = %.2f for 256B, want within [2.8, 4.0]", ratio)
	}
}

func TestRemoteNICsUtilizationPoorForTinyPackets(t *testing.T) {
	base := measure(t, 0, 4, 4000)
	three := measure(t, 3, 4, 4000)
	ratio := three / base
	// Fig. 16b: ~40% utilization of 4 NICs for 4B packets; the gain over
	// one NIC must be visibly sublinear.
	if ratio < 1.1 || ratio > 2.6 {
		t.Fatalf("LN+3RN / LN = %.2f for 4B, want within [1.1, 2.6]", ratio)
	}
	// And tiny packets must utilize the bond worse than 256B packets do.
	big := measure(t, 3, 256, 4000) / measure(t, 0, 256, 4000)
	if ratio >= big {
		t.Fatalf("4B scaling %.2f should trail 256B scaling %.2f", ratio, big)
	}
}

func TestBondRoundRobinSpreadsLoad(t *testing.T) {
	eng, p, nodes := makeNodes(t, 3)
	recipient := nodes[0]
	local := NewNIC(eng, &p, "eth0")
	dn := NewNIC(eng, &p, "eth1")
	v := AttachRemote(recipient, nodes[1], dn)
	bond := NewBond(&p, &LocalSlave{NIC: local}, v)
	recipient.Run("send", func(pr *sim.Proc) {
		for i := 0; i < 100; i++ {
			bond.Send(pr, 128)
		}
	})
	eng.RunFor(5 * sim.Second)
	if local.PktsTx != 50 {
		t.Fatalf("local carried %d, want 50", local.PktsTx)
	}
	if v.PktsTx != 50 {
		t.Fatalf("vnic carried %d, want 50", v.PktsTx)
	}
	if dn.PktsTx != 50 {
		t.Fatalf("donor NIC transmitted %d, want 50", dn.PktsTx)
	}
}

func TestVNICFramesTraverseQPair(t *testing.T) {
	eng, p, nodes := makeNodes(t, 2)
	dn := NewNIC(eng, &p, "eth-donor")
	v := AttachRemote(nodes[0], nodes[1], dn)
	nodes[0].Run("send", func(pr *sim.Proc) {
		v.Send(pr, 512)
		v.Send(pr, 512)
	})
	eng.RunFor(1 * sim.Second)
	if v.be.PktsRx != 2 {
		t.Fatalf("backend received %d, want 2", v.be.PktsRx)
	}
	if dn.BytesTx != 1024 {
		t.Fatalf("donor NIC sent %d bytes, want 1024", dn.BytesTx)
	}
}

// TestVNICSendSteadyStateAllocs is the device path's allocation gate for
// NICs. Once warm, a frame sent through a VNIC allocates nothing on
// either side: the QPair send waits out its doorbell in a pooled record
// and rides a recycled wire, the back-end receives the message by
// value, and a data frame carries nothing beyond its size. The sender
// is paced below the back-end's rate, so no queue grows.
func TestVNICSendSteadyStateAllocs(t *testing.T) {
	eng, p, nodes := makeNodes(t, 2)
	v := AttachRemote(nodes[0], nodes[1], NewNIC(eng, &p, "eth-donor"))
	sent := 0
	eng.Go("send", func(pr *sim.Proc) {
		for {
			v.Send(pr, 256)
			sent++
			pr.Sleep(20 * sim.Microsecond)
		}
	})
	eng.RunFor(5 * sim.Millisecond)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	warm := sent
	runtime.ReadMemStats(&before)
	eng.RunFor(100 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	if sent -= warm; sent < 1000 {
		t.Fatalf("only %d frames in the window", sent)
	}
	if v.be.PktsRx < int64(warm+sent)-1 {
		t.Fatalf("the back-end received %d of %d frames: it fell behind", v.be.PktsRx, warm+sent)
	}
	// Mallocs counts the whole process, so allow one stray allocation
	// elsewhere per hundred frames.
	if got := float64(after.Mallocs-before.Mallocs) / float64(sent); got > 0.01 {
		t.Fatalf("steady-state VNIC send allocates %.3f objects, want 0", got)
	}
}

// BenchmarkVNICSend measures one warm 256-byte frame through a VNIC: the
// front-end driver, the QPair doorbell and wire, the back-end's receive
// and bridge, and the donor NIC's serializer. The sender is paced, so
// each op also pays one sleep.
func BenchmarkVNICSend(b *testing.B) {
	eng, p, nodes := makeNodes(b, 2)
	v := AttachRemote(nodes[0], nodes[1], NewNIC(eng, &p, "eth-donor"))
	send := func(n int) {
		eng.Go("send", func(pr *sim.Proc) {
			for range n {
				v.Send(pr, 256)
				pr.Sleep(20 * sim.Microsecond)
			}
		})
		eng.Run()
	}
	send(1000)
	b.ReportAllocs()
	b.ResetTimer()
	send(b.N)
}

func TestVNICCloseStopsBackend(t *testing.T) {
	eng, p, nodes := makeNodes(t, 2)
	dn := NewNIC(eng, &p, "eth-donor")
	v := AttachRemote(nodes[0], nodes[1], dn)
	nodes[0].Run("close", func(pr *sim.Proc) {
		v.Send(pr, 64)
		v.Close(pr)
	})
	eng.Run()
	if eng.LiveProcs() != 0 {
		t.Fatalf("%d processes leaked after Close", eng.LiveProcs())
	}
}

func TestBondValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty bond accepted")
		}
	}()
	p := sim.Default()
	NewBond(&p)
}
