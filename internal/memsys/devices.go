package memsys

import (
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/transport"
)

// LocalDisk is node-local storage (the prototype swaps to SD-class
// flash): each page op pays the device's seek/command latency plus
// transfer time at its bandwidth, both from p.
func LocalDisk(p *sim.Params) *FixedLatencyDevice {
	return &FixedLatencyDevice{DevName: "localdisk", P: p, Latency: p.LocalDiskLat, MBps: p.LocalDiskMBps}
}

// RemoteSwap is the paper's high-performance virtual block device backed
// by donor memory over the RDMA channel (§5.2.1). The driver uses double
// buffering to overlap descriptor preparation with DMA, so the effective
// per-page software cost is one descriptor, not two.
type RemoteSwap struct {
	P     *sim.Params
	RDMA  *transport.RDMA
	Donor fabric.NodeID
	Base  uint64 // donor-local base address of the swap area

	// Pages transferred, for accounting.
	PagesIn  int64
	PagesOut int64
}

// ReadPage DMAs one page from donor memory.
func (d *RemoteSwap) ReadPage(p *sim.Proc, page uint64) {
	d.PagesIn++
	d.RDMA.Read(p, d.Donor, d.Base+page*uint64(d.P.PageBytes), d.P.PageBytes)
}

// ReadPages DMAs a sequential batch in a single descriptor.
func (d *RemoteSwap) ReadPages(p *sim.Proc, page uint64, n int) {
	d.PagesIn += int64(n)
	d.RDMA.Read(p, d.Donor, d.Base+page*uint64(d.P.PageBytes), n*d.P.PageBytes)
}

// WritePage DMAs one page to donor memory.
func (d *RemoteSwap) WritePage(p *sim.Proc, page uint64) {
	d.PagesOut++
	d.RDMA.Write(p, d.Donor, d.Base+page*uint64(d.P.PageBytes), d.P.PageBytes)
}

// Name identifies the device.
func (d *RemoteSwap) Name() string { return "remoteswap:" + d.Donor.String() }

// FixedLatencyDevice is a generic block device defined by a one-way
// request latency and a bandwidth, used to model local storage and the
// commodity-interconnect swap targets (Fig. 3) without simulating
// their full stacks.
type FixedLatencyDevice struct {
	DevName string
	P       *sim.Params
	Latency sim.Dur // full software+protocol round trip, excluding data
	MBps    float64 // sustained data bandwidth
}

func (d *FixedLatencyDevice) pageTime() sim.Dur {
	secs := float64(d.P.PageBytes) / (d.MBps * 1e6)
	return sim.DurFromSeconds(secs)
}

// ReadPage blocks for one page read.
func (d *FixedLatencyDevice) ReadPage(p *sim.Proc, _ uint64) {
	p.Sleep(d.Latency + d.pageTime())
}

// ReadPages amortizes the protocol round trip over a sequential batch.
func (d *FixedLatencyDevice) ReadPages(p *sim.Proc, _ uint64, n int) {
	p.Sleep(d.Latency + sim.Dur(n)*d.pageTime())
}

// WritePage blocks for one page write.
func (d *FixedLatencyDevice) WritePage(p *sim.Proc, _ uint64) {
	p.Sleep(d.Latency + d.pageTime())
}

// Name identifies the device.
func (d *FixedLatencyDevice) Name() string { return d.DevName }
