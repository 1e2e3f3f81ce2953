package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// receiver consumes packets arriving over a link.
type receiver interface {
	receive(pkt *Packet, from *Link)
}

// LinkStats exposes a link's lifetime counters.
type LinkStats struct {
	Packets     int64
	Bytes       int64
	Corrupted   int64 // dropped by receiver CRC check
	Replays     int64 // retransmissions by the sender replay mechanism
	CreditStall int64 // packets that had to wait for a datalink credit
	BusyTime    sim.Dur
}

// Link is one unidirectional point-to-point channel: serializer, wire,
// and the datalink protocol of §5.1.1 (credit-based flow control toward
// the receiver's buffers, CRC error detection at the receiver, replay at
// the sender).
type Link struct {
	eng  *sim.Engine
	p    *sim.Params
	name string
	to   receiver

	// fixed is the total latency a packet pays in flight after leaving the
	// serializer: sender PHY + propagation + receiver PHY. Router-adjacent
	// links override it (the router's retimer PHYs are cheaper than a full
	// node SerDes).
	fixed sim.Dur

	// gbps overrides Params.LinkGbps for this link when positive — the
	// per-cable bandwidth knob hierarchical topologies use to model
	// oversubscribed spine uplinks.
	gbps float64

	nextFree sim.Time      // serializer occupancy (bandwidth model)
	credits  int           // datalink credits available at the sender
	waitQ    fifo[*Packet] // sends waiting for a credit, in send order

	// returns holds the credit returns on their way back to the sender
	// that are not events, each at the slot its event would have had,
	// in slot order. Only send and returnCredit read the credits, and
	// each first applies every return whose slot has passed; a send
	// that finds no credit turns the rest into events at their slots.
	// While a send waits, arrivals schedule their returns as events at
	// once, so returns is empty whenever waitQ is not.
	returns fifo[sim.Slot]

	errRate float64 // probability a packet arrives corrupted
	rng     *sim.RNG
	down    bool

	// inflight holds every transmission whose arrival is scheduled, in
	// transmission order. Arrivals fire in that same order: the
	// serializer is FIFO, so departures are increasing, and every packet
	// then pays the same fixed latency — so each arrival event pops the
	// head.
	inflight fifo[flight]

	// Cached event handlers: scheduling a method value allocates a
	// closure, scheduling these does not.
	onArrive, onCredit func()

	stats LinkStats
}

// flight is one transmission on the wire.
type flight struct {
	pkt      *Packet
	replays  int          // retransmissions of pkt before this one, plus taken
	replayAt sim.Time     // when the sender's replay timer fires, if armed
	timer    *replayTimer // the timer, when transmit armed it
}

// taken is a bit of a replay count, above any count the replay bound
// allows: it marks a copy of a packet the receiver has already taken.
// Such a copy is acked on arrival, as a real datalink acks a sequence
// number it has seen, but not delivered again and frees no credit: the
// copy the receiver took did both. The mark reaches every copy a timer
// sends after an earlier copy landed, and that is every copy, since a
// timer fires no earlier than its own copy lands (see transmit).
const taken = 1 << 30

// replayTimer is an armed sender replay timer: it resends its packet
// unless the packet's ack landed first.
type replayTimer struct {
	l       *Link
	pkt     *Packet
	replays int      // the flight's, plus taken once it arrives intact
	acked   bool     // the packet arrived intact
	ackAt   sim.Time // when its ack reaches the sender
}

// fire resends the packet unless its ack landed first. An ack landing
// at the timer's own instant loses the race, as it did when acks were
// events scheduled after the timer.
func (r *replayTimer) fire() {
	if r.acked && r.ackAt < r.l.eng.Now() {
		return
	}
	r.l.resend(r.pkt, r.replays+1)
}

// maxReplays bounds retransmission attempts before a packet is declared
// lost (the datalink gives up; the fault surfaces in the Topology Status
// Table rather than as an infinite replay storm).
const maxReplays = 8

// newLink wires a unidirectional link delivering to dst.
func newLink(eng *sim.Engine, p *sim.Params, name string, dst receiver, rng *sim.RNG) *Link {
	l := &Link{
		eng:     eng,
		p:       p,
		name:    name,
		to:      dst,
		fixed:   2*p.PhyLatency + p.Propagation,
		credits: p.LinkCredits,
		rng:     rng,
	}
	l.onArrive, l.onCredit = l.arrive, l.returnCredit
	return l
}

// Name reports the link's diagnostic name, e.g. "n0->n1".
func (l *Link) Name() string { return l.name }

// Stats returns a copy of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// SetErrorRate enables CRC fault injection: each packet independently
// arrives corrupted with probability r. The receiver drops corrupted
// packets; the sender replays them after the replay timeout.
func (l *Link) SetErrorRate(r float64) {
	if r < 0 || r >= 1 {
		panic(fmt.Sprintf("fabric: error rate %v out of [0,1)", r))
	}
	l.errRate = r
}

// SetGbps overrides this link's serial bandwidth (0 restores the global
// Params.LinkGbps). Only serialization time changes; the fixed PHY and
// propagation latencies are rate-independent.
func (l *Link) SetGbps(gbps float64) {
	if gbps < 0 {
		panic(fmt.Sprintf("fabric: negative link bandwidth %v", gbps))
	}
	l.gbps = gbps
}

// Gbps reports the link's effective serial bandwidth.
func (l *Link) Gbps() float64 {
	if l.gbps > 0 {
		return l.gbps
	}
	return l.p.LinkGbps
}

// serialize reports the wire time for size bytes at the link's
// effective rate.
func (l *Link) serialize(size int) sim.Dur {
	return l.p.SerializeAt(size, l.Gbps())
}

// SetDown marks the link failed (packets vanish in flight) or restores
// it. The datalink's bounded replay gives up on packets lost to a down
// link; the runtime's Topology Status Table reflects the failure via
// agent probes.
func (l *Link) SetDown(down bool) { l.down = down }

// Down reports whether the link is failed.
func (l *Link) Down() bool { return l.down }

// Utilization reports the fraction of the interval [0, now] the
// serializer was busy. As a telemetry signal this lifetime average is
// nearly useless after warm-up — it dilutes every burst over the whole
// run — so samplers should prefer Sample/UtilizationSince, which report
// a recent window instead.
func (l *Link) Utilization() float64 {
	return l.UtilizationSince(LinkSample{})
}

// LinkSample marks one instant of a link's busy-time accumulation; a
// later UtilizationSince against it yields the utilization of just the
// window between the two instants. The zero value marks time zero, so
// UtilizationSince(LinkSample{}) is the lifetime average.
type LinkSample struct {
	At   sim.Time
	Busy sim.Dur
}

// Sample captures the link's current busy-time accumulation for
// windowed utilization measurement.
func (l *Link) Sample() LinkSample {
	return LinkSample{At: l.eng.Now(), Busy: l.stats.BusyTime}
}

// UtilizationSince reports the fraction of the window (s.At, now] the
// serializer was busy — the windowed signal the telemetry plane
// heartbeats to the Monitor Node. An empty window reports 0.
func (l *Link) UtilizationSince(s LinkSample) float64 {
	window := l.eng.Now().Sub(s.At)
	if window <= 0 {
		return 0
	}
	busy := l.stats.BusyTime - s.Busy
	if busy < 0 {
		busy = 0
	}
	u := busy.Seconds() / window.Seconds()
	// The serializer can be committed past the sample instant (nextFree
	// beyond now books BusyTime early); clamp so consumers see [0, 1].
	if u > 1 {
		u = 1
	}
	return u
}

// send queues a packet for transmission, respecting datalink credits.
func (l *Link) send(pkt *Packet) {
	l.applyReturns()
	if l.credits == 0 {
		l.stats.CreditStall++
		l.waitQ.push(pkt)
		// Each return still on its way becomes an event at its slot, so
		// the first to land transmits the packet when it always did.
		for l.returns.len() > 0 {
			l.eng.AtSlot(l.returns.pop(), l.onCredit)
		}
		return
	}
	l.credits--
	l.transmit(pkt, 0)
}

// applyReturns hands back the credit of every queued return whose slot
// has passed.
func (l *Link) applyReturns() {
	for l.returns.len() > 0 && l.eng.Passed(l.returns.peek()) {
		l.returns.pop()
		l.credits++
	}
}

// transmit pushes one packet through the serializer and schedules its
// arrival; replays counts the earlier transmissions of the same packet
// and carries the taken bit.
func (l *Link) transmit(pkt *Packet, replays int) {
	now := l.eng.Now()
	ser := l.serialize(pkt.Size)
	depart := now
	if l.nextFree > depart {
		depart = l.nextFree
	}
	l.nextFree = depart.Add(ser)
	l.stats.BusyTime += ser
	l.stats.Packets++
	l.stats.Bytes += int64(pkt.Size)
	if replays > 0 {
		l.stats.Replays++
	}

	arrive := l.nextFree.Add(l.fixed)
	l.eng.At(arrive, l.onArrive)
	// Sender-side replay timer: anchored past the latest instant a
	// successful ack could land (arrival + reverse flight), plus the
	// configured timeout margin. A link that may lose the packet — down,
	// corrupting, or leaving the ack no margin to beat the timer — arms
	// it here, right after the arrival as it always was, so the timer
	// keeps its (time, seq) order against every other event. A healthy
	// link arms none, and a delivered packet costs two events (arrival,
	// switch traversal), plus its credit return when a send waits for
	// it (see arrive); an arrival that does lose the packet, because
	// the link failed in flight, arms the timer then for the same
	// instant.
	// A timer never fires before its copy lands: a ReplayTO below minus
	// the ack delay acts as exactly minus the ack delay.
	f := flight{pkt: pkt, replays: replays, replayAt: max(arrive.Add(l.fixed+l.serialize(0)+l.p.ReplayTO), arrive)}
	if l.down || l.errRate > 0 || l.p.ReplayTO <= 0 {
		f.timer = l.armReplay(f)
	}
	l.inflight.push(f)
}

// armReplay schedules f's replay timer, and marks its packet held: the
// timer may send it again after it has been delivered.
func (l *Link) armReplay(f flight) *replayTimer {
	f.pkt.held = true
	r := &replayTimer{l: l, pkt: f.pkt, replays: f.replays}
	l.eng.At(f.replayAt, r.fire)
	return r
}

// arrive runs at the receiver for the oldest transmission in flight:
// CRC check, ack, delivery, credit return. A copy of a packet the
// receiver already took is acked and dropped. The return reserves the
// event slot it always had but becomes an event only when a send is
// waiting for a credit, or when the ack delay shrank in flight
// (SetGbps, or a Params change) so that it would land before a queued
// return; otherwise it joins returns for the next send to apply.
func (l *Link) arrive() {
	f := l.inflight.pop()
	lost := l.down // lost in flight; replay until the bound, then give up
	if !lost && l.errRate > 0 && l.rng != nil && l.rng.Bool(l.errRate) {
		l.stats.Corrupted++
		lost = true // no ack; the sender's replay timer will fire
	}
	// Ack flows back over the paired reverse channel; model it as a fixed
	// small-packet delay without charging the serializer.
	ackDelay := l.fixed + l.serialize(0)
	ackAt := l.eng.Now().Add(ackDelay)
	dup := f.replays&taken != 0
	if !lost {
		f.replays |= taken // any later copy is one
	}
	switch {
	case f.timer != nil:
		f.timer.acked, f.timer.ackAt, f.timer.replays = !lost, ackAt, f.replays
	case lost || ackAt >= f.replayAt: // or the link slowed in flight
		l.armReplay(f)
	}
	if lost || dup {
		return
	}
	// The receiver buffer frees once the switch has taken the packet;
	// return the credit after that plus the reverse flight.
	s := l.eng.Reserve(l.p.SwitchLat + ackDelay)
	if l.waitQ.len() > 0 || l.returns.len() > 0 && s.Before(l.returns.tail()) {
		l.eng.AtSlot(s, l.onCredit)
	} else {
		l.returns.push(s)
	}
	l.to.receive(f.pkt, l)
}

// returnCredit hands a buffer credit back to the sender, after every
// queued return whose slot has passed, and drains the wait queue.
func (l *Link) returnCredit() {
	l.applyReturns()
	l.credits++
	if l.waitQ.len() > 0 && l.credits > 0 {
		l.credits--
		l.transmit(l.waitQ.pop(), 0)
	}
}

// resend retransmits a packet whose ack never arrived, keeping the
// credit it holds, or past the replay bound gives up and frees it,
// unless the receiver took a copy, whose delivery returned the credit.
func (l *Link) resend(pkt *Packet, replays int) {
	if replays&^taken > maxReplays {
		if replays&taken == 0 {
			l.returnCredit() // free the buffer the lost packet held
		}
		return
	}
	l.transmit(pkt, replays)
}
