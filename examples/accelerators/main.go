// Accelerators: the Fig. 11 scenario — an application on one node
// drives two remote FFT engines and a remote crypto engine through the
// accelerator library, with device locations hidden behind handles and
// data pipelined over the RDMA channel.
package main

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	cluster := core.NewCluster(core.Config{StartAgents: true})
	defer cluster.Close()

	// Donors: node 2 hosts two FFT engines, node 3 a crypto engine.
	fft1 := accel.New(cluster.Eng, cluster.P, accel.FFT{MBps: 180, Setup: 20 * sim.Microsecond})
	fft2 := accel.New(cluster.Eng, cluster.P, accel.FFT{MBps: 180, Setup: 20 * sim.Microsecond})
	svc2 := accel.Serve(cluster.Node(2), fft1, fft2)
	crypto := accel.New(cluster.Eng, cluster.P, accel.Crypto{MBps: 400, Setup: 5 * sim.Microsecond})
	svc3 := accel.Serve(cluster.Node(3), crypto)
	cluster.Agents[2].Devices[monitor.DevAccelerator] = 2
	cluster.Agents[3].Devices[monitor.DevAccelerator] = 1
	defer svc2.Shutdown()
	defer svc3.Shutdown()
	cluster.RunFor(1 * sim.Second)

	app := cluster.Node(0)
	client := accel.NewClient(app)
	attach := func(p *sim.Proc, opts ...core.Option) *core.AccelLease {
		l, err := cluster.Acquire(p, core.NewRequest(core.Accel, app, 0,
			append([]core.Option{core.WithClient(client)}, opts...)...))
		if err != nil {
			panic(err)
		}
		return l.(*core.AccelLease)
	}
	app.Run("app", func(p *sim.Proc) {
		// Fig. 11: the application receives two FFT and one crypto
		// accelerator; the library handles dispatch.
		fftA := attach(p)
		fftB := attach(p, core.WithDevice(1))
		cr := attach(p)
		fmt.Printf("attached: fft@%v fft@%v crypto@%v\n",
			fftA.Donor(), fftB.Donor(), cr.Donor())

		const data = 8 << 20
		// One device.
		t0 := p.Now()
		fftA.Handle.Run(p, "fft", data)
		one := p.Now().Sub(t0)

		// Two devices, halves in parallel.
		t1 := p.Now()
		g := sim.NewGroup(cluster.Eng)
		g.Add(2)
		cluster.Eng.Go("halfA", func(q *sim.Proc) { fftA.Handle.Run(q, "fft", data/2); g.Done() })
		cluster.Eng.Go("halfB", func(q *sim.Proc) { fftB.Handle.Run(q, "fft", data/2); g.Done() })
		g.Wait(p)
		two := p.Now().Sub(t1)
		fmt.Printf("8 MiB FFT: one remote device %v, two devices %v (%.2fx)\n",
			one, two, float64(one)/float64(two))

		// Then encrypt the result remotely.
		t2 := p.Now()
		cr.Handle.Run(p, "crypto", data)
		fmt.Printf("8 MiB crypto on %v: %v\n", cr.Donor(), p.Now().Sub(t2))

		// The math itself is real: run the CPU-side FFT for comparison.
		buf := make([]complex128, 1<<14)
		buf[1] = 1
		t3 := p.Now()
		workloads.FFTLocalCPU(p, app.Mem, 0, buf)
		app.Mem.Flush(p)
		fmt.Printf("16Ki-point FFT on the CPU instead: %v\n", p.Now().Sub(t3))
	})
	cluster.RunFor(600 * sim.Second)
}
