package transport

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// lossyFault applies one 4-byte fault record to the line: the first
// byte's low bit picks a slowdown (0) or a down window (1) and its next
// two bits a half-link; the next two bytes give the start, and the last
// the length, both in units of 100 ns. A slowdown drops the half-link
// to 0.01 Gbps, where the ack of a packet that arrives meanwhile lands
// after its replay timer; a down window fails the half-link's whole
// pair. With bit 3 set the record is a node-down window instead, for
// node (bits 1-2) mod 3, whose switch drops every packet it touches
// meanwhile: its own sends, traffic it forwards and its own deliveries.
// Bit 4 then also moves the node's interface off-chip for the whole run,
// so a delivery waits out an I/O-bus crossing that a crash can cut
// short.
func (r *lineRig) lossyFault(rec []byte) {
	ab := lossyLinks[rec[0]>>1&3]
	at := sim.Time(0).Add(sim.Dur(int(rec[1])<<8|int(rec[2])) * 100)
	d := sim.Dur(rec[3]) * 100
	net := r.ep[0].Net
	switch {
	case rec[0]&8 != 0:
		n := fabric.NodeID((rec[0] >> 1 & 3) % 3)
		net.Switch(n).SetOffChip(rec[0]&16 != 0)
		r.eng.At(at, func() { net.SetNodeDown(n, true) })
		r.eng.At(at.Add(d), func() { net.SetNodeDown(n, false) })
	case rec[0]&1 == 0:
		r.slowFor(ab[0], ab[1], at, d)
	default:
		r.eng.At(at, func() { net.SetLinkDown(ab[0], ab[1], true) })
		r.eng.At(at.Add(d), func() { net.SetLinkDown(ab[0], ab[1], false) })
	}
}

// FuzzLossyDelivery drives fuzzer-chosen traffic (see lossyRun) over
// the three-node line under fuzzer-chosen faults: a CRC error rate per
// half-link, one byte of rates each (up to about one packet in two),
// and slowdowns, down windows and node-down windows (see lossyFault).
// The fabric then replays packets, and drops each replayed copy of a
// packet its receiver already took, and a crashed node's switch drops
// packets, whose wires the transport's drop sink takes back: a packet
// delivered twice, or dropped and then delivered, would be released
// twice, which panics. A call may time out, but every call answered
// must get its own answer. The event queue must also drain: nothing may
// schedule work forever. The seed corpus under
// testdata/fuzz/FuzzLossyDelivery covers each fault kind, with a
// node-down seed for each point a switch drops at: a node's own send,
// a packet in transit, and a delivery an off-chip crossing delays.
// TestHeldWiresAreNotReused gates Packet.Held itself.
func FuzzLossyDelivery(f *testing.F) {
	f.Fuzz(func(t *testing.T, rates uint32, faults, ops []byte) {
		r := newLineRig(t)
		net := r.ep[0].Net
		for i, ab := range lossyLinks {
			net.Link(ab[0], ab[1]).SetErrorRate(float64(rates>>(8*i)&0xff) / 512)
		}
		for i := 0; i+4 <= len(faults) && i < 4*8; i += 4 {
			r.lossyFault(faults[i : i+4])
		}
		r.lossyRun(t, ops[:min(len(ops), 64)])
	})
}
