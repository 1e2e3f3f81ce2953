package transport

import (
	"fmt"
	"iter"
)

// slotBits is how many low bits of an operation id index its slot in a
// pendingTable; the high 64-slotBits bits carry its sequence number.
const slotBits = 20

// pendingTable holds one channel's outstanding operations, keyed by the
// id each request carries and its answer echoes. An id is
// seq<<slotBits | slot: its low slotBits bits index the slot its record
// holds, and its high bits are the table's sequence number at issue,
// which counts every add. A lookup is therefore one index and one
// compare. Ids never repeat and ascend in issue order; an answer whose
// id no longer matches its slot's (the operation ended, and its slot is
// empty or held by a newer one) finds nothing and is dropped. add
// panics rather than let the sequence wrap or the slot index outgrow
// its bits. Freed slots are reused most recent first.
type pendingTable[T any] struct {
	slots []pendingSlot[T]
	free  []uint32 // indices of empty slots
	seq   uint64   // the next add's sequence number
	live  int
}

// pendingSlot is one slot: the id of the operation that holds it, or
// held it last, and its record, nil once the slot is empty.
type pendingSlot[T any] struct {
	id  uint64
	rec *T
}

// add files rec under a fresh id and returns the id.
func (t *pendingTable[T]) add(rec *T) uint64 {
	if t.seq == 1<<(64-slotBits) {
		panic("transport: pending-table sequence exhausted")
	}
	var i uint32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if len(t.slots) == 1<<slotBits {
			panic(fmt.Sprintf("transport: more than %d operations pending on one channel", 1<<slotBits))
		}
		i = uint32(len(t.slots))
		t.slots = append(t.slots, pendingSlot[T]{})
	}
	id := t.seq<<slotBits | uint64(i)
	t.seq++
	t.slots[i] = pendingSlot[T]{id: id, rec: rec}
	t.live++
	return id
}

// get returns the record filed under id, or nil if that operation is
// no longer pending.
func (t *pendingTable[T]) get(id uint64) *T {
	i := id & (1<<slotBits - 1)
	if i >= uint64(len(t.slots)) || t.slots[i].id != id {
		return nil
	}
	return t.slots[i].rec
}

// remove empties id's slot and returns its record, or returns nil and
// does nothing if that operation is no longer pending.
func (t *pendingTable[T]) remove(id uint64) *T {
	rec := t.get(id)
	if rec == nil {
		return nil
	}
	i := id & (1<<slotBits - 1)
	t.slots[i].rec = nil
	t.free = append(t.free, uint32(i))
	t.live--
	return rec
}

// reset empties every slot. The sequence runs on, so no id filed
// before matches one filed after.
func (t *pendingTable[T]) reset() {
	clear(t.slots)
	t.slots, t.free, t.live = t.slots[:0], t.free[:0], 0
}

// len reports how many operations are pending.
func (t *pendingTable[T]) len() int { return t.live }

// all yields every pending id and its record, in slot order.
func (t *pendingTable[T]) all() iter.Seq2[uint64, *T] {
	return func(yield func(uint64, *T) bool) {
		for _, s := range t.slots {
			if s.rec != nil && !yield(s.id, s.rec) {
				return
			}
		}
	}
}
