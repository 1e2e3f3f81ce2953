package transport

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// newPairNet builds a two-node pair network for property tests.
func newPairNet(eng *sim.Engine, p *sim.Params) *fabric.Network {
	return fabric.NewNetwork(eng, p, fabric.Pair(), sim.NewRNG(1))
}

// Property: whatever order messages arrive in, the reorder buffer
// releases them to software in sequence order.
func TestQPairReorderProperty(t *testing.T) {
	prop := func(seed uint64, sz uint8) bool {
		n := int(sz%20) + 2
		rng := sim.NewRNG(seed)
		eng := sim.New()
		defer eng.Close()
		p := sim.Default()
		net := newPairNet(eng, &p)
		a := NewEndpoint(eng, &p, net, 0)
		b := NewEndpoint(eng, &p, net, 1)
		_, qb := ConnectQPair(a, b, QPairConfig{})

		perm := rng.Perm(n)
		eng.Schedule(0, func() {
			for _, seq := range perm {
				qb.injectOutOfOrder(0, &qpMsg{dstQID: qb.id, seq: uint64(seq), size: 1, data: seq})
			}
		})
		var got []int
		eng.Go("rx", func(pr *sim.Proc) {
			for i := 0; i < n; i++ {
				got = append(got, qb.Recv(pr).Data.(int))
			}
		})
		eng.Run()
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: an RAMT entry matches every address within its window and
// none outside it.
func TestRAMTTranslationProperty(t *testing.T) {
	prop := func(baseSeed, off uint64, szPow uint8) bool {
		size := uint64(1) << (12 + szPow%16) // 4 KiB .. 128 MiB
		localBase := (baseSeed % (1 << 40)) &^ 0xFFF
		e := &RAMTEntry{LocalBase: localBase, Size: size,
			Node: 1, RemoteBase: 0x4000_0000}
		if !e.contains(localBase + off%size) {
			return false
		}
		// One past the end and one before the start never match.
		if e.contains(localBase + size) {
			return false
		}
		if localBase > 0 && e.contains(localBase-1) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved fills with random sizes all complete, and the
// donor serves exactly as many requests as the requester issued.
func TestCRMAFillCompletionProperty(t *testing.T) {
	prop := func(seed uint64, cnt uint8) bool {
		n := int(cnt%24) + 1
		rng := sim.NewRNG(seed)
		eng := sim.New()
		defer eng.Close()
		p := sim.Default()
		net := newPairNet(eng, &p)
		a := NewEndpoint(eng, &p, net, 0)
		b := NewEndpoint(eng, &p, net, 1)
		if _, err := a.CRMA.Map(0x1_0000_0000, 1<<20, 1, 0); err != nil {
			return false
		}
		b.CRMA.Export(0, 0x1_0000_0000, 1<<20, 0)
		ok := true
		eng.Go("filler", func(pr *sim.Proc) {
			var cs []*sim.Completion
			for i := 0; i < n; i++ {
				addr := 0x1_0000_0000 + uint64(rng.Intn(1<<20-256))
				size := 64 * (1 + rng.Intn(4))
				c := sim.NewCompletion(eng)
				a.CRMA.FillAsync(addr, size, c)
				cs = append(cs, c)
			}
			for _, c := range cs {
				pr.Await(c)
			}
			for _, c := range cs {
				if !c.Done() {
					ok = false
				}
			}
		})
		eng.Run()
		return ok && a.CRMA.Stats.Fills == int64(n) && b.CRMA.Stats.Served == int64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQPairStatsLatencies(t *testing.T) {
	r := newRig(t)
	qa, qb := ConnectQPair(r.a, r.b, QPairConfig{})
	var lats []sim.Dur
	r.eng.Go("rx", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			lats = append(lats, qb.Recv(p).Latency)
		}
	})
	r.eng.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			qa.Send(p, 64, nil)
		}
	})
	r.eng.Run()
	if len(lats) != 10 {
		t.Fatalf("received %d of 10 messages", len(lats))
	}
	// Wire latency floor: every message crossed at least one hop.
	for i, lat := range lats {
		if lat < r.p.HopLatency() {
			t.Fatalf("message %d latency %v below one hop %v", i, lat, r.p.HopLatency())
		}
	}
	if qb.Pending() != 0 {
		t.Fatalf("pending = %d after drain", qb.Pending())
	}
	if qa.Peer() != 1 || qa.String() == "" {
		t.Fatal("identity accessors broken")
	}
}
