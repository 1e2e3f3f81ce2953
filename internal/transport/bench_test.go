package transport

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// benchOps drives b.N operations from one proc over a warm line rig, so
// the proc's own start is not charged to the operation.
func benchOps(b *testing.B, r *lineRig, op func(p *sim.Proc)) {
	r.eng.Go("warm", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			op(p)
		}
	})
	r.eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	r.eng.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			op(p)
		}
	})
	r.eng.Run()
}

// BenchmarkCRMAFill measures one remote cacheline fill, issue to
// completion, over a one-hop route.
func BenchmarkCRMAFill(b *testing.B) {
	r := newLineRig(b)
	r.mapWindow(b)
	c := r.ep[0].CRMA
	benchOps(b, r, func(p *sim.Proc) { c.Fill(p, winBase, 64) })
}

// BenchmarkRDMARead measures one 32 KiB DMA read, the bulk size of the
// perfbench spine-read workload's background tenants.
func BenchmarkRDMARead(b *testing.B) {
	r := newLineRig(b)
	rdma := r.ep[0].RDMA
	benchOps(b, r, func(p *sim.Proc) { rdma.Read(p, 1, oldBase, 32<<10) })
}

// BenchmarkCall measures one blocking RPC whose service replies at once.
func BenchmarkCall(b *testing.B) {
	r := newLineRig(b)
	r.ep[1].HandleCall(kindEcho, func(_ *sim.Proc, _ fabric.NodeID, req any) (any, int) { return req, 8 })
	a := r.ep[0]
	benchOps(b, r, func(p *sim.Proc) { a.CallTimeout(p, 1, kindEcho, 8, nil, 0) })
}

// BenchmarkCallInline measures one blocking RPC served by an inline
// handler, without a service proc.
func BenchmarkCallInline(b *testing.B) {
	r := newLineRig(b)
	r.ep[1].HandleInline(kindEcho, func(_ fabric.NodeID, req any) (any, int) { return req, 8 })
	a := r.ep[0]
	benchOps(b, r, func(p *sim.Proc) { a.CallTimeout(p, 1, kindEcho, 8, nil, 0) })
}
