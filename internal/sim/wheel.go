package sim

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
)

// The hierarchical timing wheel: the engine's event queue.
//
// Virtual time is an int64 nanosecond count, split into 12-bit digits.
// Level l of the wheel has 4096 slots of 4096^l ns each, so level 0
// spans 4096 ns and the three levels together cover the 2^36 ns
// (~68.7 s) of virtual time that shares the current top-level window
// with the wheel's clock. Events scheduled beyond that horizon wait in
// a (time, seq)-sorted spill list and are pulled into the wheel when
// the clock reaches their window. A fabric hop's arrival, traversal and
// credit return (when it is an event) are all scheduled less than level
// 0's span ahead of the clock, so most events are placed once and never
// cascade.
//
// A level-0 slot spans exactly 1 ns, so within one rotation every event
// in it carries the same timestamp; buckets are FIFO lists in which the
// events of one instant sit in ascending seq order, and cascades
// preserve relative order — which together make bucket order the
// (at, seq) FIFO order the engine requires. A push keeps that order with
// no comparison, because its seq is the largest yet issued: it is O(1)
// (pick the level whose window contains the timestamp, append at the
// bucket's tail). An event at a reserved slot (Engine.AtSlot) may carry
// a lower seq than events already queued at its instant; insert walks
// its bucket and puts it ahead of the first of them with a larger seq.
// Extraction is O(1) amortized (each level's occupancy bitmap and its
// summary word find the next non-empty slot; events in higher levels
// cascade down as the clock reaches their window).
//
// The wheel's clock (vnow) trails the engine's: it advances to each
// popped event's timestamp, or to a slot boundary during a cascade —
// never past the earliest pending event, so a later push can never be
// "in the past" relative to the wheel. When the wheel empties, the
// clock simply restarts at the next pushed event's timestamp.
const (
	wheelBits   = 12
	wheelSlots  = 1 << wheelBits // 4096 slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 3               // horizon: 4096^3 ns ≈ 68.7 s
	wheelWords  = wheelSlots / 64 // occupancy bitmap words per level
)

// bucket is one wheel slot: an intrusive FIFO list of events linked
// through event.next.
type bucket struct{ head, tail *event }

// wheel is the engine's event queue. The engine keeps two invariants
// for it:
//
//   - push and insert are only called with ev.at >= the timestamp of
//     the most recently popped event (virtual time never rewinds), and
//   - push gets seq values in ascending order; an event whose seq may
//     be lower than a queued one's goes through insert. Seqs are
//     unique, so (at, seq) is a strict total order and equal-timestamp
//     events pop in seq order.
//
// The zero value is an empty wheel. The fields the hot path touches on
// every operation come first, ahead of the bucket arrays. The tests in
// queue_ref_test.go hold the wheel to the firing order of the
// container/heap queue it replaced, for any push, insert and pop
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

// digit extracts the level-l slot index of t.
func digit(l int, t Time) int {
	return int(uint64(t)>>uint(l*wheelBits)) & wheelMask
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

// insert is push for an event whose seq may be lower than that of
// events already queued at its instant: one scheduled at a reserved
// slot. It goes ahead of the first event at the same instant with a
// larger seq, in a level's bucket as in the spill list, so each
// bucket's same-instant events stay in seq order; cascades and spill
// drains keep that order, and pops stay in (at, seq) order. The walk
// visits at most the bucket's events; plain push stays a tail append.
func (w *wheel) insert(ev *event, now Time) {
	if w.n > 0 {
		if l := w.levelOf(ev.at); l < wheelLevels {
			b := &w.level[l][digit(l, ev.at)]
			var prev *event
			for next := b.head; next != nil; prev, next = next, next.next {
				if next.at == ev.at && next.seq > ev.seq {
					ev.next, ev.prev, next.prev = next, prev, ev
					if prev == nil {
						b.head = ev
					} else {
						prev.next = ev
					}
					w.n++
					return
				}
			}
		}
	}
	// Nothing later is queued at ev's instant: append it, or insert it
	// in the sorted spill list.
	w.push(ev, now)
}

// levelOf reports the lowest wheel level whose current window contains
// t, or wheelLevels when t is beyond the horizon: the level place puts
// an event at t in.
func (w *wheel) levelOf(t Time) int {
	diff := uint64(t) ^ uint64(w.vnow)
	l := 0
	for l < wheelLevels && diff>>uint((l+1)*wheelBits) != 0 {
		l++
	}
	return l
}

// place appends ev to the lowest wheel level whose current window
// contains ev.at, or to the spill list when ev.at is beyond the
// horizon. Shared by push, insert, cascade, and the spill drain.
func (w *wheel) place(ev *event) {
	diff := uint64(ev.at) ^ uint64(w.vnow)
	for l := 0; l < wheelLevels; l++ {
		if diff>>uint((l+1)*wheelBits) == 0 {
			slot := digit(l, ev.at)
			b := &w.level[l][slot]
			ev.next, ev.prev = nil, b.tail
			if b.tail == nil {
				b.head = ev
				w.occ[l][slot>>6] |= 1 << uint(slot&63)
				w.sum[l] |= 1 << uint(slot>>6)
			} else {
				b.tail.next = ev
			}
			b.tail = ev
			return
		}
	}
	w.spillInsert(ev)
}

// remove unlinks a queued event: from its bucket, found as insert finds
// it (an event at level l sits in the slot of its level-l digit, since
// the clock never passes it uncascaded), or from the spill list. A
// bucket's events are linked both ways through next and prev, except
// that the head's prev may be stale, so the head is recognized by
// position instead.
func (w *wheel) remove(ev *event) {
	w.n--
	l := w.levelOf(ev.at)
	if l == wheelLevels {
		i, _ := slices.BinarySearchFunc(w.spill, ev, func(s, ev *event) int {
			if c := cmp.Compare(s.at, ev.at); c != 0 {
				return c
			}
			return cmp.Compare(s.seq, ev.seq)
		})
		w.spill = slices.Delete(w.spill, i, i+1)
		return
	}
	slot := digit(l, ev.at)
	b := &w.level[l][slot]
	if b.head == ev {
		b.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if b.tail == ev {
		if b.head == nil {
			b.tail = nil
			w.vacate(l, slot)
		} else {
			b.tail = ev.prev
		}
	} else {
		ev.next.prev = ev.prev
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
		// lower window is current: take the first occupied slot at or
		// after the clock's position.
		if slot, ok := w.scan(0, digit(0, w.vnow)); ok {
			b := &w.level[0][slot]
			ev := b.head
			if bounded && ev.at > bound {
				return nil
			}
			if b.head = ev.next; b.head == nil {
				b.tail = nil
				w.vacate(0, slot)
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
	span := uint((l + 1) * wheelBits)
	base := uint64(w.vnow) >> span << span
	return Time(base | uint64(slot)<<uint(l*wheelBits))
}

// cascade redistributes one higher-level slot's events into lower
// levels, head to tail. Re-placing happens strictly below l (the clock
// has advanced into the slot's window) into buckets that are still
// empty, and relative order of equal-timestamp events is preserved,
// keeping every bucket in (at, seq) FIFO order.
func (w *wheel) cascade(l, slot int) {
	b := &w.level[l][slot]
	ev := b.head
	*b = bucket{}
	w.vacate(l, slot)
	for ev != nil {
		next := ev.next
		w.place(ev)
		ev = next
	}
}

// spillInsert adds a beyond-horizon event, keeping spill (at, seq)
// sorted. Timers more than a minute out are rare relative to hot-path
// events, so the O(n) insert is cheaper in practice than another wheel
// level's cascades.
func (w *wheel) spillInsert(ev *event) {
	i := sort.Search(len(w.spill), func(i int) bool {
		s := w.spill[i]
		return s.at > ev.at || (s.at == ev.at && s.seq > ev.seq)
	})
	w.spill = append(w.spill, nil)
	copy(w.spill[i+1:], w.spill[i:])
	w.spill[i] = ev
}

// drainSpill moves every spill event sharing the clock's (fresh)
// top-level window into the wheel. Called only when the wheel proper is
// empty and the clock has jumped to the spill head, so at least the
// head always moves. The sorted spill keeps equal-timestamp events in
// seq order as they are placed.
func (w *wheel) drainSpill() {
	const topShift = uint(wheelLevels * wheelBits)
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
