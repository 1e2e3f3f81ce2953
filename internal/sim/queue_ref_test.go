package sim

import (
	"container/heap"
	"encoding/binary"
	"math"
	"testing"
)

// refHeap is the engine's original container/heap event queue, retired
// from the hot path but kept here as the reference implementation of
// the wheel's push/pop contract: pop order is (at, seq) ascending by
// construction of heap.Interface, with none of the wheel's window
// bookkeeping to get wrong. The property tests below fire identical
// event streams through both and require identical pop order.
type refHeap []*event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// heapQueue gives refHeap the wheel's bounded-pop semantics.
type heapQueue struct{ h refHeap }

func (q *heapQueue) push(ev *event) { heap.Push(&q.h, ev) }
func (q *heapQueue) pop(bound Time, bounded bool) *event {
	if len(q.h) == 0 || (bounded && q.h[0].at > bound) {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

// horizonBits is log2 of the wheel's horizon: an event whose timestamp
// leaves the clock's top-level window of 2^horizonBits ns waits in the
// spill list.
const horizonBits = slotBits + wheelLevels*wheelBits

// regimes counts the delay regimes the property tests draw from: a
// same-instant tie, one per wheel level, beyond the horizon, and within
// one level-0 slot.
const regimes = wheelLevels + 3

// regimeDelay maps regime r and a raw draw x to a delay, deriving every
// range from the wheel's geometry. Regime 0 is a same-instant tie, where
// FIFO order must hold. Regime r in [1, wheelLevels] draws below
// 2^(slotBits + r·wheelBits) ns, so it lands in level r−1, or one level
// higher when it crosses that level's window. Regime wheelLevels+1 lies
// beyond the horizon, in the spill list. The last regime draws below one
// level-0 slot (2^slotBits ns), so a push often lands in a bucket that
// already holds a later event and must go ahead of it.
func regimeDelay(r int, x uint64) Dur {
	switch {
	case r == 0:
		return 0
	case r <= wheelLevels:
		return Dur(x & (1<<levelShift(r) - 1))
	case r == wheelLevels+1:
		return Dur(1<<horizonBits + x&(1<<(horizonBits+2)-1))
	default:
		return Dur(x & (1<<slotBits - 1))
	}
}

// queueDelay draws a delay from every regime with equal weight.
func queueDelay(rng *RNG) Dur { return regimeDelay(rng.Intn(regimes), rng.Uint64()) }

// orderCheck drives the timing wheel and the reference heap through one
// stream of operations and fails on the first pop they disagree on.
type orderCheck struct {
	t   testing.TB
	w   wheel
	h   heapQueue
	seq uint64
	// now and cur play the engine clock and its dispatch seq: the last
	// popped event's instant and seq, or the bound of a bounded pop that
	// found nothing (the clock RunUntil leaves) and MaxUint64. Pushes
	// never land before now.
	now Time
	cur uint64
	// reserved holds the slots reserved and not yet inserted.
	reserved []Slot
	// queued lists the wheel's events not yet popped or canceled, and
	// index holds each one's place in it, so a cancel can pick any.
	queued []*event
	index  map[*event]int
	// seen records which regimes held an event at some point: each
	// level's occupancy bitmap, then the spill list. pushedAhead records
	// where a push landed ahead of a later event already queued in its
	// bucket or the spill list, ahead where an insert at a reserved slot
	// landed ahead of an event already queued at its instant, and
	// canceled where a cancel unlinked an event.
	seen, pushedAhead, ahead, canceled [wheelLevels + 1]bool
}

// opSize is the bytes one operation takes from a stream: a control byte
// and an 8-byte little-endian argument.
const opSize = 9

// run interprets ops, opSize bytes per operation (a short last one reads
// its missing bytes as zero), then inserts every reserved slot that has
// not passed and drains both queues. The control byte's low three bits
// pick the operation: two of eight push; one cancels a queued event, as
// Engine.Cancel does; one pushes at the instant of a reserved slot; one
// reserves a slot; one inserts an event at a reserved slot, as
// Engine.AtSlot does, or drops the slot if it has passed; one pops up
// to a bound; one pops unbounded. Its high bits pick the regime of the
// push's or reservation's delay or of the bound's distance from the
// clock, and the argument picks the value within it, or which queued
// event or reserved slot the operation takes.
func (c *orderCheck) run(ops []byte) {
	for len(ops) > 0 {
		var op [opSize]byte
		ops = ops[copy(op[:], ops):]
		arg := binary.LittleEndian.Uint64(op[1:])
		d := regimeDelay(int(op[0]>>3)%regimes, arg)
		switch op[0] & 7 {
		case 2:
			if n := uint64(len(c.queued)); n > 0 {
				c.cancel(c.queued[arg%n])
			}
		case 3:
			if n := uint64(len(c.reserved)); n > 0 && c.reserved[arg%n].at >= c.now {
				c.push(c.reserved[arg%n].at)
			} else {
				c.push(c.now.Add(d))
			}
		case 4:
			c.reserved = append(c.reserved, Slot{at: c.now.Add(d), seq: c.seq})
			c.seq++
		case 5:
			c.pop(c.now.Add(d), true)
		case 6:
			c.pop(0, false)
		case 7:
			if n := uint64(len(c.reserved)); n > 0 {
				c.insert(int(arg % n))
			}
		default:
			c.push(c.now.Add(d))
		}
		c.observe()
	}
	for len(c.reserved) > 0 {
		c.insert(0)
	}
	for c.pop(0, false) {
	}
	if c.w.len() != 0 || c.h.h.Len() != 0 {
		c.t.Fatalf("queues not drained: wheel=%d heap=%d", c.w.len(), c.h.h.Len())
	}
}

func (c *orderCheck) push(at Time) {
	ev := &event{at: at, seq: c.seq}
	c.w.push(ev, c.now)
	c.track(ev)
	c.h.push(&event{at: at, seq: c.seq})
	c.seq++
	if l, next := c.placed(ev); next != nil {
		c.pushedAhead[l] = true
	}
}

// placed reports the regime the wheel placed a queued event in, and the
// event queued right behind it there: in its bucket, or in the spill
// list. It reports a nil event for the last one.
func (c *orderCheck) placed(ev *event) (int, *event) {
	l := c.w.levelOf(ev.at)
	if l < wheelLevels {
		if c.w.level[l][digit(l, ev.at)].tail == ev {
			return l, nil
		}
		return l, ev.next
	}
	for j, sp := range c.w.spill {
		if sp == ev && j+1 < len(c.w.spill) {
			return l, c.w.spill[j+1]
		}
	}
	return l, nil
}

// track lists a wheel event as queued; untrack takes it off the list.
func (c *orderCheck) track(ev *event) {
	if c.index == nil {
		c.index = make(map[*event]int)
	}
	c.index[ev] = len(c.queued)
	c.queued = append(c.queued, ev)
}

func (c *orderCheck) untrack(ev *event) {
	i, last := c.index[ev], c.queued[len(c.queued)-1]
	c.queued[i], c.index[last] = last, i
	c.queued = c.queued[:len(c.queued)-1]
	delete(c.index, ev)
}

// cancel removes a queued event from both queues, noting the regime the
// wheel unlinked it from.
func (c *orderCheck) cancel(ev *event) {
	c.canceled[c.w.levelOf(ev.at)] = true
	c.w.remove(ev)
	c.untrack(ev)
	for i, he := range c.h.h {
		if he.seq == ev.seq {
			heap.Remove(&c.h.h, i)
			return
		}
	}
	c.t.Fatalf("canceled event (%d,%d) is not in the reference heap", ev.at, ev.seq)
}

// insert takes reserved slot i off the list and, unless it has passed,
// pushes an event there in both queues, as Engine.AtSlot does, noting
// whether the wheel put it ahead of an event already queued at the same
// instant.
func (c *orderCheck) insert(i int) {
	s := c.reserved[i]
	c.reserved[i] = c.reserved[len(c.reserved)-1]
	c.reserved = c.reserved[:len(c.reserved)-1]
	if s.at < c.now || s.at == c.now && s.seq < c.cur {
		return // passed: the engine would have acted on it already
	}
	ev := &event{at: s.at, seq: s.seq}
	c.w.push(ev, c.now)
	c.track(ev)
	c.h.push(&event{at: s.at, seq: s.seq})
	if l, next := c.placed(ev); next != nil && next.at == s.at {
		c.ahead[l] = true
	}
}

// pop pops both queues, compares the pair, and reports whether an event
// popped.
func (c *orderCheck) pop(bound Time, bounded bool) bool {
	we, he := c.w.pop(bound, bounded), c.h.pop(bound, bounded)
	switch {
	case we == nil && he == nil:
		if bounded && bound > c.now {
			c.now = bound
		}
		c.cur = math.MaxUint64
		return false
	case we == nil || he == nil:
		c.t.Fatalf("pop mismatch after %d pushes: wheel=%v heap=%v", c.seq, we, he)
	case we.at != he.at || we.seq != he.seq:
		c.t.Fatalf("pop order diverged: wheel=(%d,%d) heap=(%d,%d)", we.at, we.seq, he.at, he.seq)
	case we.at < c.now:
		c.t.Fatalf("time rewound: popped %d after %d", we.at, c.now)
	}
	c.untrack(we)
	c.now, c.cur = we.at, we.seq
	return true
}

func (c *orderCheck) observe() {
	for l := range c.w.occ {
		for _, word := range c.w.occ[l] {
			c.seen[l] = c.seen[l] || word != 0
		}
	}
	c.seen[wheelLevels] = c.seen[wheelLevels] || len(c.w.spill) > 0
}

// TestWheelMatchesHeapOrder runs 16k random operations through the
// timing wheel and the reference heap, interleaving pushes, cancels,
// reserved slots and inserts at them with bounded and unbounded pops
// the way a simulation does, then drains both. Every pop must agree on
// (at, seq). Every wheel level and the spill list must have held
// events, and in each of them a push must have landed ahead of a later
// event already queued in its bucket, an insert ahead of an event
// already queued at its instant, and a cancel must have unlinked one,
// so a geometry change cannot leave a regime untested.
func TestWheelMatchesHeapOrder(t *testing.T) {
	rng := NewRNG(1234)
	ops := make([]byte, 16_000*opSize)
	for i := 0; i < len(ops); i += 8 {
		binary.LittleEndian.PutUint64(ops[i:], rng.Uint64())
	}
	c := &orderCheck{t: t}
	c.run(ops)
	for l, seen := range c.seen[:wheelLevels] {
		if !seen {
			t.Errorf("wheel level %d never held an event", l)
		}
	}
	if !c.seen[wheelLevels] {
		t.Error("the spill list never held an event")
	}
	for l, ahead := range c.pushedAhead[:wheelLevels] {
		if !ahead {
			t.Errorf("no push landed ahead of a later event queued in its bucket in wheel level %d", l)
		}
	}
	if !c.pushedAhead[wheelLevels] {
		t.Error("no push landed ahead of a later event in the spill list")
	}
	for l, ahead := range c.ahead[:wheelLevels] {
		if !ahead {
			t.Errorf("no insert at a reserved slot landed ahead of a queued same-instant event in wheel level %d", l)
		}
	}
	if !c.ahead[wheelLevels] {
		t.Error("no insert at a reserved slot landed ahead of a queued same-instant event in the spill list")
	}
	for l, canceled := range c.canceled[:wheelLevels] {
		if !canceled {
			t.Errorf("no cancel unlinked an event from wheel level %d", l)
		}
	}
	if !c.canceled[wheelLevels] {
		t.Error("no cancel unlinked an event from the spill list")
	}
}

// FuzzWheelOrder runs a fuzzer-chosen operation stream (see
// orderCheck.run) through the wheel and the reference heap. The seed
// corpus under testdata/fuzz/FuzzWheelOrder covers every regime, for
// pushes, inserts at reserved slots and cancels alike, pushes reordered
// within one slot, and cancels of a bucket's head, middle and tail.
func FuzzWheelOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		(&orderCheck{t: t}).run(ops)
	})
}

// TestWheelBoundedPopStopsAtBoundary pins the bounded-pop contract the
// engine's RunUntil depends on: nothing beyond the bound pops, and the
// queue is undisturbed for later unbounded pops.
func TestWheelBoundedPopStopsAtBoundary(t *testing.T) {
	const spilled = 1<<horizonBits + 7 // beyond the horizon from 0
	var w wheel
	for i, at := range []Time{5, 10, 10, 1 << 20, spilled} {
		w.push(&event{at: at, seq: uint64(i)}, 0)
	}
	var got []Time
	for {
		ev := w.pop(10, true)
		if ev == nil {
			break
		}
		got = append(got, ev.at)
	}
	if len(got) != 3 || got[0] != 5 || got[1] != 10 || got[2] != 10 {
		t.Fatalf("bounded pops = %v, want [5 10 10]", got)
	}
	if ev := w.pop(0, false); ev == nil || ev.at != 1<<20 {
		t.Fatalf("first unbounded pop after boundary = %v, want at=1<<20", ev)
	}
	if ev := w.pop(0, false); ev == nil || ev.at != spilled {
		t.Fatalf("spill pop = %v, want at=%d", ev, Time(spilled))
	}
	if w.len() != 0 {
		t.Fatalf("len = %d after drain, want 0", w.len())
	}
}
