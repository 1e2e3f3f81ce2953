// Package vnic implements Venice's remote NIC sharing (§5.2.3, Fig. 12):
// a front-end driver on the recipient presents a virtual NIC whose
// frames traverse a QPair to a back-end driver on the donor, which
// bridges them onto the donor's real NIC. Linux-style bonding combines
// the local NIC and any number of VNICs into one virtual interface.
package vnic

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/transport"
)

// NIC is one conventional Ethernet NIC: a line-rate serializer with
// Ethernet framing overhead (minimum frame size, preamble/FCS/IFG).
type NIC struct {
	Eng  *sim.Engine
	P    *sim.Params
	name string

	nextFree sim.Time

	PktsTx  int64
	BytesTx int64 // payload bytes
}

// NewNIC builds a NIC at Params.NICGbps.
func NewNIC(eng *sim.Engine, p *sim.Params, name string) *NIC {
	return &NIC{Eng: eng, P: p, name: name}
}

// FrameTime reports the wire time of a frame carrying size payload bytes.
func (n *NIC) FrameTime(size int) sim.Dur {
	payload := size
	if payload < n.P.EthMinFrame {
		payload = n.P.EthMinFrame
	}
	bits := float64(payload+n.P.EthFrameOverhead) * 8
	return sim.Dur(bits/n.P.NICGbps + 0.5)
}

// Enqueue appends one frame to the TX ring and returns its drain time.
func (n *NIC) Enqueue(size int) sim.Time {
	now := n.Eng.Now()
	depart := now
	if n.nextFree > depart {
		depart = n.nextFree
	}
	n.nextFree = depart.Add(n.FrameTime(size))
	n.PktsTx++
	n.BytesTx += int64(size)
	return n.nextFree
}

// Drained reports when the last enqueued frame leaves the wire.
func (n *NIC) Drained() sim.Time { return n.nextFree }

// Name identifies the NIC.
func (n *NIC) Name() string { return n.name }

// Slave is one member of a bonded interface.
type Slave interface {
	// Send hands one packet of size payload bytes to the slave, charging
	// the calling process only for its share of sender-side software.
	Send(p *sim.Proc, size int)
	// Drained reports when the slave's last frame hits the wire.
	Drained() sim.Time
	Name() string
}

// LocalSlave transmits on the node's own NIC.
type LocalSlave struct {
	NIC *NIC
}

// Send enqueues directly; the local driver cost is inside the generic
// stack cost charged by the bond.
func (s *LocalSlave) Send(_ *sim.Proc, size int) { s.NIC.Enqueue(size) }

// Drained reports the NIC's drain time.
func (s *LocalSlave) Drained() sim.Time { return s.NIC.Drained() }

// Name identifies the slave.
func (s *LocalSlave) Name() string { return "local:" + s.NIC.Name() }

// closeFrame is the payload that stops a back-end loop. A data frame
// needs none: its size is the QPair message's.
type closeFrame struct{}

// VNIC is the recipient-side front-end driver of a remote NIC.
type VNIC struct {
	P  *sim.Params
	qp *transport.QPair
	be Backend

	PktsTx  int64
	BytesTx int64
}

// Send pays the front-end driver cost and ships the frame through the
// QPair hardware path (one hardware QPair services each IP-over-QPair
// connection).
func (v *VNIC) Send(p *sim.Proc, size int) {
	p.Sleep(v.P.VNICFrontPerPkt)
	v.PktsTx++
	v.BytesTx += int64(size)
	v.qp.SendHW(p, size, nil)
}

// Drained reports when the donor NIC drains (conservatively: the
// donor-side NIC's current estimate).
func (v *VNIC) Drained() sim.Time { return v.be.NIC.Drained() }

// Name identifies the slave.
func (v *VNIC) Name() string { return "vnic->" + v.qp.Peer().String() }

// Close stops the donor's back-end loop.
func (v *VNIC) Close(p *sim.Proc) {
	v.qp.SendHW(p, 0, closeFrame{})
}

// Backend is the donor-side half: back-end driver + software bridge +
// real NIC.
type Backend struct {
	Node *node.Node
	NIC  *NIC
	qp   *transport.QPair

	PktsRx int64
}

// AttachRemote builds the full remote-NIC path from recipient to donor:
// QPair, back-end driver loop, bridge, and the donor's real NIC.
func AttachRemote(recipient, donor *node.Node, donorNIC *NIC) *VNIC {
	front, back := transport.ConnectQPair(recipient.EP, donor.EP, transport.QPairConfig{})
	v := &VNIC{P: recipient.P, qp: front, be: Backend{Node: donor, NIC: donorNIC, qp: back}}
	be := &v.be
	donor.Eng.Go(fmt.Sprintf("vnic-backend@%v", donor.ID), func(p *sim.Proc) {
		for {
			m := back.Recv(p) // QPair software receive cost applies here
			if _, stop := m.Data.(closeFrame); stop {
				return
			}
			be.PktsRx++
			p.Sleep(donor.P.VNICBackPerPkt + donor.P.BridgePerPkt)
			donorNIC.Enqueue(m.Size)
		}
	})
	return v
}

// Bond is the Linux bonding device combining slaves into one interface.
type Bond struct {
	P      *sim.Params
	slaves []Slave
	next   int

	PktsTx  int64
	BytesTx int64
}

// NewBond builds a bond over the given slaves (at least one).
func NewBond(p *sim.Params, slaves ...Slave) *Bond {
	if len(slaves) == 0 {
		panic("vnic: bond needs at least one slave")
	}
	return &Bond{P: p, slaves: slaves}
}

// Send pushes one packet through the bond: the network stack cost
// (fixed per packet plus copy/checksum per byte), then round-robin
// distribution across slaves.
func (b *Bond) Send(p *sim.Proc, size int) {
	p.Sleep(b.P.NetStackPerPkt + b.P.NetStackPerKB*sim.Dur(size)/1024)
	s := b.slaves[b.next%len(b.slaves)]
	b.next++
	b.PktsTx++
	b.BytesTx += int64(size)
	s.Send(p, size)
}

// Drained reports when every slave's traffic has left the wire.
func (b *Bond) Drained() sim.Time {
	var latest sim.Time
	for _, s := range b.slaves {
		if d := s.Drained(); d > latest {
			latest = d
		}
	}
	return latest
}
