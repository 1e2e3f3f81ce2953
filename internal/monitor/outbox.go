package monitor

import (
	"slices"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Some control messages must land eventually or the plane leaks: a
// hot-return owed to a donor, a relocate or revoke owed to a recipient,
// and on the sharded plane a free or cancellation between a sub-MN and
// the root. Each travels as a letter through its MN's one outbox. A
// letter whose delivery is lost parks there, and later passes redeliver
// it until it lands or stops mattering.

// letter is one control message an MN owes an addressee. Letters travel
// by value, so a delivery that lands allocates nothing.
type letter struct {
	to      fabric.NodeID
	kind    transport.Kind
	size    int // request wire size
	req     any
	timeout sim.Dur
	// inc is the addressee's incarnation when the letter was written: a
	// reboot since wiped whatever the letter is about.
	inc int64
	// stale, when set, reports that the letter no longer matters: its row
	// is gone, or a newer message superseded it.
	stale func() bool
	// answer, when set, consumes the addressee's response.
	answer func(p *sim.Proc, resp any)
	// retried is the counter a redelivery bumps.
	retried counter
}

// obsolete is the counter a letter of kind k bumps when it is dropped,
// its addressee having rebooted or the letter gone stale: the kind's
// name with ".obsolete".
func obsolete(k transport.Kind) counter {
	switch k {
	case kindHotReturn:
		return statHotReturnObsolete
	case kindRelocate:
		return statRelocateObsolete
	case kindRevoke:
		return statRevokeObsolete
	case kindRackFree:
		return statRackFreeObsolete
	case kindBorrowCancel:
		return statBorrowCancelObsolete
	case kindDelegateFree:
		return statDelegateFreeObsolete
	case kindDelegateCancel:
		return statDelegateCancelObsolete
	}
	panic("monitor: no letter has kind " + k.String())
}

// outbox holds one MN's parked letters. incarnation and reachable are
// the MN's view of an addressee; passing is set while a pass runs.
type outbox struct {
	ep          *transport.Endpoint
	stats       *Counters
	incarnation func(fabric.NodeID) int64
	reachable   func(fabric.NodeID) bool
	parked      []letter
	passing     bool
}

// deliver calls l's addressee and hands a response to l.answer.
func (o *outbox) deliver(p *sim.Proc, l *letter) bool {
	resp, ok := o.ep.CallTimeout(p, l.to, l.kind, l.size, l.req, l.timeout)
	if ok && l.answer != nil {
		l.answer(p, resp)
	}
	return ok
}

// send delivers l now and parks it when the call is lost, written
// against the addressee's incarnation as the call went out.
func (o *outbox) send(p *sim.Proc, l letter) bool {
	inc := o.incarnation(l.to)
	if o.deliver(p, &l) {
		return true
	}
	o.park(l, inc)
	return false
}

// park holds l, written when its addressee was at incarnation inc, for
// redelivery, or drops it at once if the addressee has rebooted since.
func (o *outbox) park(l letter, inc int64) {
	if o.incarnation(l.to) != inc {
		o.stats.add(obsolete(l.kind), 1)
		return
	}
	l.inc = inc
	o.parked = append(o.parked, l)
}

// redeliver makes one pass over the parked letters in park order. A
// letter whose addressee rebooted or that went stale is dropped; one
// whose addressee is unreachable stays parked, as does every letter to
// an addressee a delivery was lost to earlier in the pass. One pass runs
// at a time; letters parked while it blocks wait for the next.
func (o *outbox) redeliver(p *sim.Proc) {
	if o.passing || len(o.parked) == 0 {
		return
	}
	o.passing = true
	pass := o.parked
	o.parked = nil
	kept := pass[:0]
	var lost []fabric.NodeID
	for _, l := range pass {
		switch {
		case o.incarnation(l.to) != l.inc || l.stale != nil && l.stale():
			o.stats.add(obsolete(l.kind), 1)
		case !o.reachable(l.to) || slices.Contains(lost, l.to):
			kept = append(kept, l)
		case o.deliver(p, &l):
			o.stats.add(l.retried, 1)
		default:
			lost = append(lost, l.to)
			kept = append(kept, l)
		}
	}
	o.parked = append(kept, o.parked...)
	o.passing = false
}
