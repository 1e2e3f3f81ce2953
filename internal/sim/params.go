package sim

// Params is the single home of every timing constant in the simulation,
// calibrated against the paper's prototype (Table 1 and §4–§7):
// 8 × Xilinx ZC706 nodes (ARM Cortex-A9 @ 667 MHz, 1 GB SODIMM) on a 3D
// mesh with 5 Gbps × 6 links, 125 MHz parallel / 5 GHz serial clocks, and
// a measured point-to-point latency of 1.4 µs.
//
// The fixed one-way fabric latency decomposes as
//
//	PhyLatency(tx) + Propagation + PhyLatency(rx) + SwitchLatency = 1.4 µs
//
// matching the paper's observation (§4.2.2) that the PHY is "a
// significant, and sometimes dominant, component of overall transaction
// latency". Serialization time (size / bandwidth) is charged on top by
// the link model.
type Params struct {
	// CPU
	CPUGHz      float64 // core clock, GHz (prototype: 0.667)
	OpsPerCycle float64 // sustained simple ops per cycle for workload compute

	// Fabric: physical + datalink + network layers.
	LinkGbps    float64 // per-port serial bandwidth, Gbit/s
	LinkPorts   int     // I/O ports per node (radix-7 switch: 6 external + 1 local)
	PhyLatency  Dur     // one PHY crossing (serdes + encode/decode)
	Propagation Dur     // cable/optics flight time, per hop
	SwitchLat   Dur     // embedded on-chip switch traversal
	RouterLat   Dur     // external one-level router traversal (Fig. 6)
	RouterPhy   Dur     // router-side retimer PHY crossing (cheaper than node SerDes)
	HeaderBytes int     // per-packet header + CRC overhead on the wire
	LinkCredits int     // datalink credit buffers per link (receiver side)
	ReplayTO    Dur     // sender replay timeout after a CRC-detected drop

	// Off-chip interface logic: the extra cost of placing the fabric
	// interface across the I/O bus instead of on the processor die
	// (the off-chip configurations of Figs. 5 and 6).
	OffChipCrossing Dur

	// Transport-layer channels (§5.1.2).
	CRMALogic     Dur // RAMT lookup + capture + packetize/de-packetize, per packet
	RDMADescSW    Dur // software cost to build/post one DMA descriptor
	RDMAChunk     int // DMA engine chunk size, bytes
	RDMADoneIRQ   Dur // completion interrupt + driver bottom half
	QPairDoor     Dur // hardware queue-pair doorbell/state-machine, per message
	QPairSWSend   Dur // user-level software send path, per message
	QPairSWRecv   Dur // user-level software receive path, per message
	QPairCreditSW Dur // posting a credit control message (lighter than data)

	// Memory hierarchy.
	DRAMLat    Dur // row-hit DRAM access on the owning node
	CacheHit   Dur // cache hit service time
	CacheBytes int // unified last-level cache size modeled per node
	CacheLine  int // line size, bytes
	CacheWays  int // set associativity
	PageBytes  int // OS page size
	MSHRs      int // outstanding misses a core sustains (A9-class: 2)

	// Paging readahead: on a sequential fault the OS brings in this many
	// pages at once.
	ReadaheadPages int

	// OS paging path.
	PageFaultSW Dur // trap + swap-path software overhead per major fault
	HotplugOp   Dur // one memory hot-plug or hot-remove operation

	// Ethernet NICs and the remote-NIC (VNIC) stack (§5.2.3).
	NICGbps          float64 // line rate of one conventional NIC
	EthFrameOverhead int     // preamble+header+FCS+IFG bytes per frame
	EthMinFrame      int     // minimum payload-carrying frame size
	NetStackPerPkt   Dur     // sender TCP/IP stack cost per packet
	NetStackPerKB    Dur     // copy/checksum cost per KiB of payload
	VNICFrontPerPkt  Dur     // front-end driver cost per packet (recipient)
	VNICBackPerPkt   Dur     // back-end driver cost per packet (donor)
	BridgePerPkt     Dur     // software bridge forwarding cost (donor)

	// Accelerators (§5.2.2).
	AccelMailboxOp  Dur // mailbox write/poll by the donor kernel thread
	AccelDoorbell   Dur // direct doorbell via the exclusive mapping
	AccelChunkBytes int // pipelining granularity for offloaded data

	// Local storage (the prototype swaps to SD-class flash).
	LocalDiskLat  Dur
	LocalDiskMBps float64
}

// Default returns the parameter set calibrated to the paper's prototype
// (Table 1). Experiments derive variations (off-chip, routed, commodity)
// from this base.
func Default() Params {
	return Params{
		CPUGHz:      0.667,
		OpsPerCycle: 1.0,

		LinkGbps:    5.0,
		LinkPorts:   6,
		PhyLatency:  550 * Nanosecond,
		Propagation: 100 * Nanosecond,
		SwitchLat:   200 * Nanosecond,
		RouterLat:   300 * Nanosecond,
		RouterPhy:   150 * Nanosecond,
		HeaderBytes: 16,
		LinkCredits: 16,
		ReplayTO:    10 * Microsecond,

		OffChipCrossing: 1 * Microsecond,

		CRMALogic:     60 * Nanosecond,
		RDMADescSW:    900 * Nanosecond,
		RDMAChunk:     4096,
		RDMADoneIRQ:   3 * Microsecond,
		QPairDoor:     150 * Nanosecond,
		QPairSWSend:   1600 * Nanosecond,
		QPairSWRecv:   1600 * Nanosecond,
		QPairCreditSW: 1200 * Nanosecond,

		DRAMLat:    80 * Nanosecond,
		CacheHit:   6 * Nanosecond,
		CacheBytes: 256 << 10,
		CacheLine:  64,
		CacheWays:  8,
		PageBytes:  4096,
		MSHRs:      2,

		ReadaheadPages: 16,

		PageFaultSW: 30 * Microsecond,
		HotplugOp:   2 * Millisecond,

		NICGbps:          1.0,
		EthFrameOverhead: 38,
		EthMinFrame:      46,
		NetStackPerPkt:   300 * Nanosecond,
		NetStackPerKB:    1200 * Nanosecond, // ≈1.2 ns per byte of copy+checksum
		VNICFrontPerPkt:  100 * Nanosecond,
		VNICBackPerPkt:   400 * Nanosecond,
		BridgePerPkt:     200 * Nanosecond,

		AccelMailboxOp:  5 * Microsecond,
		AccelDoorbell:   500 * Nanosecond,
		AccelChunkBytes: 1 << 20,

		LocalDiskLat:  800 * Microsecond,
		LocalDiskMBps: 90, // eMMC-class sequential rate; latency covers the random penalty
	}
}

// Xeon returns a parameter set approximating the Intel Xeon E5620
// reference server the paper validated its prototype against (§4.2:
// prototype wall-clock ≈ 1/16 of the target machine, within 10%). Only
// the components relevant to that validation differ: core clock, memory
// latency, and cache capacity.
func Xeon() Params {
	p := Default()
	p.CPUGHz = 2.4
	p.OpsPerCycle = 2.4 // wide OoO core vs the in-order A9
	p.DRAMLat = 65 * Nanosecond
	p.CacheHit = 4 * Nanosecond
	p.CacheBytes = 12 << 20
	p.LocalDiskLat = 120 * Microsecond // enterprise SSD vs SD card
	p.LocalDiskMBps = 250
	return p
}

// Compute reports the time to execute n simple operations on the core.
func (p *Params) Compute(n int64) Dur {
	if n <= 0 {
		return 0
	}
	return Dur(float64(n) / (p.CPUGHz * p.OpsPerCycle))
}

// Serialize reports the wire time for size bytes (plus per-packet header)
// at the link rate.
func (p *Params) Serialize(size int) Dur {
	return p.SerializeAt(size, p.LinkGbps)
}

// SerializeAt reports the wire time for size bytes (plus per-packet
// header) at an explicit rate — the single home of the serialization
// formula, shared by normal links and per-link bandwidth overrides.
func (p *Params) SerializeAt(size int, gbps float64) Dur {
	bits := float64(size+p.HeaderBytes) * 8
	ns := bits / gbps // Gbit/s ≡ bit/ns
	return Dur(ns + 0.5)
}

// DRAMAccess reports the memory time to serve an access of size bytes,
// load or store alike: one DRAM access, plus a quarter of one per 64 B
// burst beyond the first. A node's local DRAM and the donor side of a
// remote access both pay it.
func (p *Params) DRAMAccess(size int) Dur {
	bursts := max((size+63)/64, 1)
	return p.DRAMLat + Dur(bursts-1)*(p.DRAMLat/4)
}

// HopLatency reports the fixed one-way latency of a direct point-to-point
// hop, excluding serialization: PHY out, flight, PHY in, plus one switch
// traversal at the receiver. With the default parameters this is 1.4 µs,
// matching Table 1.
func (p *Params) HopLatency() Dur {
	return 2*p.PhyLatency + p.Propagation + p.SwitchLat
}
