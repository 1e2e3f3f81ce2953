package sim

// event is a callback scheduled at a virtual instant. Events with equal
// timestamps fire in scheduling order (FIFO: ascending seq), which keeps
// runs deterministic.
//
// Events are pooled: the engine recycles fired and canceled events
// through an eventPool free list, so steady-state scheduling allocates
// nothing and the scheduler's working set stays cache-resident.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	next *event // next in the event's wheel bucket (its head, for the tail) or on the free list
	// prev is the event ahead of this one in its wheel bucket (the
	// bucket's tail, for its head).
	prev       *event
	cancelable bool // scheduled by AtCancelable: a Handle naming it may cancel it
}

// eventPool is a LIFO free list of event structs, linked through
// event.next. The engine returns every popped event here after
// dispatch, and every canceled one at once, so after warm-up the pool
// is the only source of event storage: get allocates only while the
// population of in-flight events is still growing.
type eventPool struct {
	free *event
}

// get returns a recycled event, or a fresh one when the list is empty.
// Timing fields are overwritten by the scheduler, next by the wheel;
// flag fields are cleared by put.
func (p *eventPool) get() *event {
	if ev := p.free; ev != nil {
		p.free = ev.next
		return ev
	}
	return &event{}
}

// put recycles ev, dropping its callback so the pool never pins a dead
// closure (and whatever simulation state it captured) in memory.
func (p *eventPool) put(ev *event) {
	ev.fn, ev.prev = nil, nil
	ev.cancelable = false
	ev.next, p.free = p.free, ev
}
