package workloads

import (
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/vnic"
)

// IperfReport summarizes one traffic run.
type IperfReport struct {
	Packets int
	Bytes   int64
	Elapsed sim.Dur
}

// MBps reports payload throughput in megabytes per second.
func (r IperfReport) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// IperfBond blasts count packets of size payload bytes through a bonded
// interface (local NIC + VNICs) and reports goodput once every frame has
// drained — the Fig. 16b measurement.
func IperfBond(p *sim.Proc, bond *vnic.Bond, size, count int) IperfReport {
	start := p.Now()
	for i := 0; i < count; i++ {
		bond.Send(p, size)
	}
	if d := bond.Drained(); d > p.Now() {
		p.Sleep(d.Sub(p.Now()))
	}
	return IperfReport{Packets: count, Bytes: int64(size) * int64(count), Elapsed: p.Now().Sub(start)}
}

// iperfMsg is an opaque message payload.
type iperfMsg struct{ close bool }

// IperfQPairSink consumes messages until a close arrives.
func IperfQPairSink(eng *sim.Engine, qp *transport.QPair) *sim.Completion {
	return eng.Go("iperf-sink", func(p *sim.Proc) {
		for {
			m := qp.Recv(p)
			if im, ok := m.Data.(*iperfMsg); ok && im.close {
				return
			}
		}
	})
}

// IperfQPair streams count messages of size bytes over the QPair channel
// (message passing — the pattern QPair wins in Fig. 17).
func IperfQPair(p *sim.Proc, qp *transport.QPair, size, count int) IperfReport {
	start := p.Now()
	for i := 0; i < count; i++ {
		qp.Send(p, size, &iperfMsg{})
	}
	qp.Send(p, 8, &iperfMsg{close: true})
	return IperfReport{Packets: count, Bytes: int64(size) * int64(count), Elapsed: p.Now().Sub(start)}
}

// IperfCRMA emulates message passing over the CRMA channel: payload
// lines are posted stores into a remote buffer and the message becomes
// visible with a blocking flag write (the software convention CRMA
// messaging needs, since the channel has no doorbell semantics).
func IperfCRMA(p *sim.Proc, crma *transport.CRMA, window uint64, lineSize, size, count int) IperfReport {
	start := p.Now()
	lines := (size + lineSize - 1) / lineSize
	for i := 0; i < count; i++ {
		addr := window + uint64(i%64)*uint64(lines*lineSize)
		for l := 0; l < lines-1; l++ {
			crma.WriteAsync(addr+uint64(l*lineSize), lineSize, nil)
		}
		// The final line carries the flag: blocking, to order the message.
		crma.Write(p, addr+uint64((lines-1)*lineSize), lineSize)
	}
	return IperfReport{Packets: count, Bytes: int64(size) * int64(count), Elapsed: p.Now().Sub(start)}
}

// IperfRDMA emulates message passing over the RDMA channel: one
// descriptor-driven DMA per message, waiting for its completion
// interrupt (the per-message overhead that sinks RDMA in Fig. 17).
func IperfRDMA(p *sim.Proc, rdma *transport.RDMA, donor fabric.NodeID, base uint64, size, count int) IperfReport {
	start := p.Now()
	for i := 0; i < count; i++ {
		rdma.Write(p, donor, base+uint64(i%64)*uint64(size), size)
	}
	return IperfReport{Packets: count, Bytes: int64(size) * int64(count), Elapsed: p.Now().Sub(start)}
}
