package accel

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/node"
	"repro/internal/sim"
)

func pairNodes(t *testing.T) (*sim.Engine, sim.Params, *node.Node, *node.Node) {
	t.Helper()
	eng := sim.New()
	t.Cleanup(eng.Close)
	p := sim.Default()
	net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
	a := node.New(eng, &p, net, 0, 1<<30)
	b := node.New(eng, &p, net, 1, 1<<30)
	return eng, p, a, b
}

func TestKernelTimes(t *testing.T) {
	fft := FFT{MBps: 200, Setup: 10 * sim.Microsecond}
	if fft.Name() != "xfft" {
		t.Fatal("name")
	}
	// 2 MiB at 200 MB/s, plus setup.
	want := 10*sim.Microsecond + sim.DurFromSeconds(float64(2<<20)/200e6)
	if got := fft.Time(2 << 20); got < want-sim.Microsecond || got > want+sim.Microsecond {
		t.Fatalf("Time = %v, want ~%v", got, want)
	}
	cr := Crypto{MBps: 400, Setup: sim.Microsecond}
	if cr.Name() != "crypto" || cr.Time(1<<20) >= fft.Time(1<<20) {
		t.Fatal("crypto should be faster per byte here")
	}
}

func TestLocalExecQueues(t *testing.T) {
	eng, _, a, _ := pairNodes(t)
	dev := New(eng, a.P, FFT{MBps: 100, Setup: 0})
	var t1, t2 sim.Time
	eng.Go("u1", func(p *sim.Proc) {
		dev.RunLocal(p, 1<<20)
		t1 = p.Now()
	})
	eng.Go("u2", func(p *sim.Proc) {
		dev.RunLocal(p, 1<<20)
		t2 = p.Now()
	})
	eng.Run()
	if t2 <= t1 {
		t.Fatalf("second task (%v) should queue behind first (%v)", t2, t1)
	}
	if dev.Stats.Tasks != 2 || dev.Stats.Bytes != 2<<20 {
		t.Fatalf("stats = %+v", dev.Stats)
	}
}

func TestRemoteRunMovesDataAndComputes(t *testing.T) {
	eng, p, recip, donor := pairNodes(t)
	dev := New(eng, &p, FFT{MBps: 200, Setup: 10 * sim.Microsecond})
	svc := Serve(donor, dev)
	defer svc.Shutdown()
	client := NewClient(recip)
	h := client.Attach(1, 0)

	const n = 4 << 20
	var elapsed sim.Dur
	recip.Run("offload", func(pr *sim.Proc) {
		t0 := pr.Now()
		h.Run(pr, "fft", n)
		elapsed = pr.Now().Sub(t0)
	})
	eng.Run()

	if dev.Stats.Bytes != n {
		t.Fatalf("accelerator consumed %d bytes, want %d", dev.Stats.Bytes, n)
	}
	if h.Tasks != 1 || h.Bytes != n {
		t.Fatalf("handle stats: %+v", h)
	}
	// Compute floor: the device needs n/200MBps; the pipeline must not
	// finish faster than that, nor slower than compute + both transfers
	// fully serialized + generous overheads.
	floor := sim.DurFromSeconds(float64(n) / 200e6)
	wire := sim.DurFromSeconds(float64(2*n) * 8 / (p.LinkGbps * 1e9))
	if elapsed < floor {
		t.Fatalf("offload %v beat the compute floor %v", elapsed, floor)
	}
	if elapsed > floor+wire+10*sim.Millisecond {
		t.Fatalf("offload %v way above serialized bound %v", elapsed, floor+wire)
	}
}

func TestRemotePipelineOverlapsTransferAndCompute(t *testing.T) {
	// With compute slower than the wire, total time should approach the
	// compute floor plus edge effects — far below the fully-serialized
	// sum. This is the property that makes Fig. 16a near-linear.
	eng, p, recip, donor := pairNodes(t)
	dev := New(eng, &p, FFT{MBps: 150, Setup: 0})
	svc := Serve(donor, dev)
	defer svc.Shutdown()
	svc.SetExclusive(0)
	client := NewClient(recip)
	h := client.Attach(1, 0)

	const n = 16 << 20
	var elapsed sim.Dur
	recip.Run("offload", func(pr *sim.Proc) {
		t0 := pr.Now()
		h.Run(pr, "fft", n)
		elapsed = pr.Now().Sub(t0)
	})
	eng.Run()
	compute := sim.DurFromSeconds(float64(n) / 150e6)
	serialized := compute + sim.DurFromSeconds(float64(2*n)*8/(p.LinkGbps*1e9))
	if elapsed >= serialized {
		t.Fatalf("no overlap: %v >= serialized %v", elapsed, serialized)
	}
	// Within 20% of the compute floor.
	if elapsed > compute.Scale(1.2) {
		t.Fatalf("pipeline %v too far above compute floor %v", elapsed, compute)
	}
}

func TestExclusiveSkipsKernelThreadOverhead(t *testing.T) {
	run := func(exclusive bool) sim.Dur {
		eng, p, recip, donor := pairNodes(t)
		p.AccelMailboxOp = 200 * sim.Microsecond // exaggerate for the test
		dev := New(eng, &p, FFT{MBps: 500, Setup: 0})
		svc := Serve(donor, dev)
		defer svc.Shutdown()
		if exclusive {
			svc.SetExclusive(0)
		}
		client := NewClient(recip)
		h := client.Attach(1, 0)
		var elapsed sim.Dur
		recip.Run("offload", func(pr *sim.Proc) {
			t0 := pr.Now()
			h.Run(pr, "fft", 64<<10) // one chunk
			elapsed = pr.Now().Sub(t0)
		})
		eng.Run()
		return elapsed
	}
	shared, exclusive := run(false), run(true)
	if exclusive >= shared {
		t.Fatalf("exclusive path (%v) not faster than kernel-thread path (%v)", exclusive, shared)
	}
}

func TestMultipleAcceleratorsServeConcurrently(t *testing.T) {
	eng, p, recip, donor := pairNodes(t)
	d1 := New(eng, &p, FFT{MBps: 100, Setup: 0})
	d2 := New(eng, &p, FFT{MBps: 100, Setup: 0})
	svc := Serve(donor, d1, d2)
	defer svc.Shutdown()
	if svc.Count() != 2 || svc.Accelerator(1) != d2 {
		t.Fatal("service bookkeeping wrong")
	}
	client := NewClient(recip)
	h1 := client.Attach(1, 0)
	h2 := client.Attach(1, 1)

	const n = 2 << 20
	var oneT, twoT sim.Dur
	recip.Run("serial", func(pr *sim.Proc) {
		t0 := pr.Now()
		h1.Run(pr, "fft", n)
		h1.Run(pr, "fft", n)
		oneT = pr.Now().Sub(t0)

		t1 := pr.Now()
		g := sim.NewGroup(eng)
		g.Add(2)
		eng.Go("a", func(q *sim.Proc) { h1.Run(q, "fft", n); g.Done() })
		eng.Go("b", func(q *sim.Proc) { h2.Run(q, "fft", n); g.Done() })
		g.Wait(pr)
		twoT = pr.Now().Sub(t1)
	})
	eng.Run()
	if float64(twoT) > 0.75*float64(oneT) {
		t.Fatalf("two devices (%v) should meaningfully beat one device twice (%v)", twoT, oneT)
	}
}
