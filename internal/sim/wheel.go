package sim

import (
	"math/bits"
	"slices"
	"sort"
)

// The hierarchical timing wheel: the engine's event queue.
//
// Virtual time is an int64 nanosecond count. Its low 6 bits (slotBits)
// lie within one level-0 slot; the bits above them split into 12-bit
// digits, one per level. Level l of the wheel has 4096 slots of
// 64·4096^l ns each, so level 0 spans 262 µs, level 1 1.07 s, and the
// three levels together cover the 2^42 ns (~73 min) of virtual time that
// shares the current top-level window with the wheel's clock. Events
// scheduled beyond that horizon wait in a (time, seq)-sorted spill list
// and are pulled into the wheel when the clock reaches their window. A
// fabric hop, and a heartbeat tick or a lease holder's poll 100 µs out,
// are scheduled less than level 0's span ahead of the clock, so nearly
// every event is placed once and never cascades.
//
// Each bucket is kept in (at, seq) order, so the head of level 0's first
// occupied slot at or after the clock is the earliest pending event.
// place keeps that order with one comparison in the common case: every
// push carries the largest seq yet issued, so an event that does not
// fire before its bucket's tail is appended there. Otherwise place walks
// back from the tail to the first event the new one precedes and links
// it in ahead of that one. An event at a reserved slot (Engine.AtSlot),
// whose seq may be lower than that of events already queued at its
// instant, is placed the same way. Cascades and spill drains re-place
// events head to tail into buckets that are still empty, so each of
// their placements appends. Extraction is O(1) amortized (each level's
// occupancy bitmap and its summary word find the next non-empty slot;
// events in higher levels cascade down as the clock reaches their
// window).
//
// The wheel's clock (vnow) trails the engine's: it advances to each
// popped event's timestamp, or to a slot boundary during a cascade —
// never past the earliest pending event, so a later push can never be
// "in the past" relative to the wheel. When the wheel empties, the
// clock simply restarts at the next pushed event's timestamp.
const (
	slotBits    = 6 // a level-0 slot spans 2^6 = 64 ns
	wheelBits   = 12
	wheelSlots  = 1 << wheelBits // 4096 slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 3               // horizon: 2^(6+3·12) ns ≈ 73 min
	wheelWords  = wheelSlots / 64 // occupancy bitmap words per level
)

// bucket is one wheel slot: an intrusive circular list of events in
// (at, seq) order, linked both ways through event.next and event.prev.
// It holds only the tail; the head is tail.next, and a lone event links
// to itself.
type bucket struct{ tail *event }

// wheel is the engine's event queue. The engine keeps two invariants
// for it:
//
//   - push is only called with ev.at >= the timestamp of the most
//     recently popped event (virtual time never rewinds), and
//   - seqs are unique, so (at, seq) is a strict total order and
//     equal-timestamp events pop in seq order.
//
// The zero value is an empty wheel. The fields the hot path touches on
// every operation come first, ahead of the bucket arrays. The tests in
// queue_ref_test.go hold the wheel to the firing order of the
// container/heap queue it replaced, for any push, cancel and pop
// sequence.
type wheel struct {
	vnow Time // trails the engine clock; see the invariant above
	n    int  // events across all levels plus the spill list
	// sum[l] has bit w set iff occ[l][w] is non-zero; occ[l] has bit s
	// set iff level l's slot s holds an event.
	sum   [wheelLevels]uint64
	occ   [wheelLevels][wheelWords]uint64
	spill []*event // beyond-horizon events, sorted by (at, seq)
	level [wheelLevels][wheelSlots]bucket
}

func (w *wheel) len() int { return w.n }

// before reports whether a fires before b.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// levelShift is the number of low time bits below level l's digit.
func levelShift(l int) uint { return uint(slotBits + l*wheelBits) }

// digit extracts the level-l slot index of t.
func digit(l int, t Time) int {
	return int(uint64(t)>>levelShift(l)) & wheelMask
}

// push inserts ev. It receives the engine clock alongside the event: an
// empty wheel re-anchors its own clock there, which is what makes the
// invariants above hold across drain/refill cycles.
func (w *wheel) push(ev *event, now Time) {
	if w.n == 0 {
		// Empty wheel: every window is stale, so re-anchor the clock at
		// the engine's. Anchoring at now (not ev.at) keeps later pushes
		// that land earlier than this event — but never earlier than
		// now — inside valid windows.
		w.vnow = now
	}
	w.n++
	w.place(ev)
}

// levelOf reports the lowest wheel level whose current window contains
// t, or wheelLevels when t is beyond the horizon: the level place puts
// an event at t in.
func (w *wheel) levelOf(t Time) int {
	diff := uint64(t) ^ uint64(w.vnow)
	l := 0
	for l < wheelLevels && diff>>levelShift(l+1) != 0 {
		l++
	}
	return l
}

// place links ev into the lowest wheel level whose current window
// contains ev.at, in (at, seq) order within its bucket, or into the
// spill list when ev.at is beyond the horizon. Shared by push, cascade
// and the spill drain.
func (w *wheel) place(ev *event) {
	l := w.levelOf(ev.at)
	if l == wheelLevels {
		w.spillInsert(ev)
		return
	}
	slot := digit(l, ev.at)
	b := &w.level[l][slot]
	tail := b.tail
	if tail == nil {
		ev.next, ev.prev = ev, ev
		b.tail = ev
		w.occ[l][slot>>6] |= 1 << uint(slot&63)
		w.sum[l] |= 1 << uint(slot>>6)
		return
	}
	if !ev.before(tail) {
		ev.next, ev.prev = tail.next, tail
		tail.next.prev = ev
		tail.next = ev
		b.tail = ev
		return
	}
	// ev fires before the tail: link it in ahead of the first event it
	// precedes, walking back from the tail.
	at, head := tail, tail.next
	for at != head && ev.before(at.prev) {
		at = at.prev
	}
	ev.next, ev.prev = at, at.prev
	at.prev.next = ev
	at.prev = ev
}

// remove unlinks a queued event: from its bucket, found as place found
// it (an event at level l sits in the slot of its level-l digit, since
// the clock never passes it uncascaded), or from the spill list.
func (w *wheel) remove(ev *event) {
	w.n--
	l := w.levelOf(ev.at)
	if l == wheelLevels {
		i := sort.Search(len(w.spill), func(i int) bool { return !w.spill[i].before(ev) })
		w.spill = slices.Delete(w.spill, i, i+1)
		return
	}
	slot := digit(l, ev.at)
	b := &w.level[l][slot]
	if ev.next == ev {
		b.tail = nil
		w.vacate(l, slot)
		return
	}
	ev.prev.next = ev.next
	ev.next.prev = ev.prev
	if b.tail == ev {
		b.tail = ev.prev
	}
}

// vacate clears the occupancy bits of level l's slot once it is empty.
func (w *wheel) vacate(l, slot int) {
	word := slot >> 6
	if w.occ[l][word] &^= 1 << uint(slot&63); w.occ[l][word] == 0 {
		w.sum[l] &^= 1 << uint(word)
	}
}

// pop removes and returns the minimum-(at, seq) event, or nil when the
// wheel is empty. With bounded true, pop removes the minimum only when
// its timestamp is <= bound and otherwise returns nil leaving the
// queue's firing order intact — that is what lets RunUntil stop exactly
// at its boundary without peeking-then-popping twice. The wheel may
// still cascade internally, but cascades never advance the clock past
// bound.
func (w *wheel) pop(bound Time, bounded bool) *event {
	if w.n == 0 {
		return nil
	}
	for {
		// The earliest pending event is always in level 0 once the
		// lower window is current: take the head of the first occupied
		// slot at or after the clock's position.
		if slot, ok := w.scan(0, digit(0, w.vnow)); ok {
			b := &w.level[0][slot]
			tail := b.tail
			ev := tail.next
			if bounded && ev.at > bound {
				return nil
			}
			if ev == tail {
				b.tail = nil
				w.vacate(0, slot)
			} else {
				tail.next = ev.next
				ev.next.prev = tail
			}
			w.vnow = ev.at
			w.n--
			return ev
		}
		// Level 0 exhausted: cascade the next occupied higher-level
		// slot down and retry.
		if l, slot, ok := w.scanUp(); ok {
			start := w.slotStart(l, slot)
			if bounded && start > bound {
				return nil
			}
			if start > w.vnow {
				w.vnow = start
			}
			w.cascade(l, slot)
			continue
		}
		// Whole wheel empty: jump to the spill list's window.
		if bounded && w.spill[0].at > bound {
			return nil
		}
		w.vnow = w.spill[0].at
		w.drainSpill()
	}
}

// scan returns the first occupied slot >= from at level l: one masked
// look at from's bitmap word, then one at the summary word for the
// words after it.
func (w *wheel) scan(l, from int) (int, bool) {
	word := from >> 6
	if bs := w.occ[l][word] &^ (1<<uint(from&63) - 1); bs != 0 {
		return word<<6 + bits.TrailingZeros64(bs), true
	}
	later := w.sum[l] &^ (1<<uint(word+1) - 1)
	if later == 0 {
		return 0, false
	}
	word = bits.TrailingZeros64(later)
	return word<<6 + bits.TrailingZeros64(w.occ[l][word]), true
}

// scanUp finds the lowest level above 0 with an occupied slot at or
// after the clock's position.
func (w *wheel) scanUp() (l, slot int, ok bool) {
	for l = 1; l < wheelLevels; l++ {
		if slot, ok = w.scan(l, digit(l, w.vnow)); ok {
			return l, slot, true
		}
	}
	return 0, 0, false
}

// slotStart reports the first instant covered by the given slot of
// level l in the level's current rotation.
func (w *wheel) slotStart(l, slot int) Time {
	span := levelShift(l + 1)
	base := uint64(w.vnow) >> span << span
	return Time(base | uint64(slot)<<levelShift(l))
}

// cascade redistributes one higher-level slot's events into lower
// levels, head to tail. It runs only once level 0 is empty and the
// clock has advanced into the slot's window, so its events are
// re-placed strictly below l into buckets that are still empty, and in
// order: each placement appends.
func (w *wheel) cascade(l, slot int) {
	b := &w.level[l][slot]
	tail := b.tail
	b.tail = nil
	w.vacate(l, slot)
	ev := tail.next
	tail.next = nil // cut the circle at the tail
	for ev != nil {
		next := ev.next
		w.place(ev)
		ev = next
	}
}

// spillInsert adds a beyond-horizon event, keeping spill (at, seq)
// sorted. Timers more than an hour out are rare relative to hot-path
// events, so the O(n) insert is cheaper in practice than another wheel
// level's cascades.
func (w *wheel) spillInsert(ev *event) {
	i := sort.Search(len(w.spill), func(i int) bool {
		return ev.before(w.spill[i])
	})
	w.spill = append(w.spill, nil)
	copy(w.spill[i+1:], w.spill[i:])
	w.spill[i] = ev
}

// drainSpill moves every spill event sharing the clock's (fresh)
// top-level window into the wheel. Called only when the wheel proper is
// empty and the clock has jumped to the spill head, so at least the
// head always moves. The sorted spill keeps the events in (at, seq)
// order as they are placed, so each placement appends.
func (w *wheel) drainSpill() {
	const topShift = slotBits + wheelLevels*wheelBits
	blk := uint64(w.vnow) >> topShift
	i := 0
	for i < len(w.spill) && uint64(w.spill[i].at)>>topShift == blk {
		w.place(w.spill[i])
		i++
	}
	rest := copy(w.spill, w.spill[i:])
	for j := rest; j < len(w.spill); j++ {
		w.spill[j] = nil
	}
	w.spill = w.spill[:rest]
}
