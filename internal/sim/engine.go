package sim

import (
	"fmt"
	"math"
)

// Handle identifies a cancelable scheduled event: the pooled event
// and the seq it was scheduled with. Once the event fires or is
// canceled, the pool may reuse its struct for a later event, which has
// a later seq, so a stale Handle never matches it. The zero Handle is
// never issued, so it can mark "no timer pending".
type Handle struct {
	ev  *event
	seq uint64
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct one with New.
//
// Events live in a hierarchical timing wheel (wheel.go) and are pooled
// (pool.go), so steady-state scheduling — one Schedule plus one
// dispatched event — performs no allocation.
type Engine struct {
	now   Time
	seq   uint64
	cur   uint64 // seq of the event dispatched last; MaxUint64 once the queue stops (see Passed)
	pool  eventPool
	live  int // processes started and not yet finished
	fired uint64
	procs *Proc // every coroutine, parked or idle, linked by Proc.all
	idle  *Proc // coroutines whose fn has returned, linked by Proc.idle
	q     wheel // last: the fields above stay ahead of its bucket arrays
}

// New returns a fresh engine with virtual time zero and an empty queue.
func New() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events waiting in the queue. Canceled
// events are not counted: they are dead the moment Cancel returns. Nor
// are reserved slots (see Reserve): they are not events until AtSlot
// schedules them.
func (e *Engine) Pending() int { return e.q.len() }

// Fired reports the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// LiveProcs reports the number of processes that have started and not yet
// returned. A nonzero value after Run returns indicates a deadlock in the
// simulated program.
func (e *Engine) LiveProcs() int { return e.live }

// schedule enqueues a pooled event for fn at t and returns it.
func (e *Engine) schedule(t Time, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.pool.get()
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.q.push(ev, e.now)
	return ev
}

// At schedules fn to run at the absolute virtual instant t. Scheduling in
// the past panics: virtual time never rewinds.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, fn) }

// Schedule schedules fn to run d after the current instant.
func (e *Engine) Schedule(d Dur, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(e.now.Add(d), fn)
}

// AtCancelable is At returning a Handle that Cancel accepts. Use it for
// timers that usually lose their race — RPC timeouts, watchdogs — so
// the queue is not left churning through dead callbacks.
func (e *Engine) AtCancelable(t Time, fn func()) Handle {
	ev := e.schedule(t, fn)
	ev.cancelable = true
	return Handle{ev: ev, seq: ev.seq}
}

// ScheduleCancelable is Schedule returning a Handle that Cancel accepts.
func (e *Engine) ScheduleCancelable(d Dur, fn func()) Handle {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.AtCancelable(e.now.Add(d), fn)
}

// Slot is a reserved place in the firing order: an instant and the seq
// an event scheduled for it when the slot was reserved would have had.
// A caller reserves a slot for a would-be event it may never need to
// schedule, and either acts when it next finds the slot Passed, or
// schedules the event with AtSlot, which fires it exactly where it
// would have fired had it been scheduled at the reservation.
type Slot struct {
	at  Time
	seq uint64
}

// At reports the slot's instant.
func (s Slot) At() Time { return s.at }

// Before reports whether s comes before o in the firing order.
func (s Slot) Before(o Slot) bool {
	return s.at < o.at || s.at == o.at && s.seq < o.seq
}

// Reserve returns the slot an event scheduled d after the current
// instant would take. It consumes one seq, as Schedule does, so every
// later event keeps the seq it would have had.
func (e *Engine) Reserve(d Dur) Slot {
	if d < 0 {
		panic("sim: negative delay")
	}
	s := Slot{at: e.now.Add(d), seq: e.seq}
	e.seq++
	return s
}

// Passed reports whether an event at slot s would already have fired.
// While an event is being dispatched, and after Step returns, that is
// whether s comes before the event dispatched last. Once the queue has
// drained, or RunUntil has run out of events up to its bound, every
// slot at or before Now has passed; a later one has not.
func (e *Engine) Passed(s Slot) bool {
	return s.at < e.now || s.at == e.now && s.seq < e.cur
}

// AtSlot schedules fn at a reserved slot that has not passed; it panics
// on one that has. The event fires ahead of every event at the same
// instant scheduled after the reservation.
func (e *Engine) AtSlot(s Slot, fn func()) {
	if e.Passed(s) {
		panic(fmt.Sprintf("sim: scheduling at slot (%v, %d), which has passed", s.at, s.seq))
	}
	ev := e.pool.get()
	ev.at, ev.seq, ev.fn = s.at, s.seq, fn
	e.q.push(ev, e.now)
}

// Cancel revokes a cancelable event that has not fired yet, reporting
// whether it did anything. The event leaves the queue at once, unlinked
// from its wheel bucket (or the spill list), and goes back to the pool,
// so a revoked watchdog costs nothing later; the firing order of live
// events is undisturbed. Canceling an event that already fired, was
// already canceled, or a zero Handle returns false.
func (e *Engine) Cancel(h Handle) bool {
	ev := h.ev
	// A fired, canceled or recycled event has lost its cancelable flag
	// (the pool clears it) or carries another seq.
	if ev == nil || !ev.cancelable || ev.seq != h.seq {
		return false
	}
	e.q.remove(ev)
	e.pool.put(ev)
	return true
}

// step fires the earliest event and reports whether one ran. With
// bounded true only events with at <= bound fire.
func (e *Engine) step(bound Time, bounded bool) bool {
	ev := e.q.pop(bound, bounded)
	if ev == nil {
		// Every event up to the stop has fired, so every slot up to now
		// has passed.
		e.cur = math.MaxUint64
		return false
	}
	e.now, e.cur = ev.at, ev.seq
	e.fired++
	fn := ev.fn
	e.pool.put(ev) // recycle before dispatch: fn may schedule into this slot
	fn()
	return true
}

// Step executes the earliest pending event and reports whether one ran.
func (e *Engine) Step() bool { return e.step(0, false) }

// Run executes events until the queue drains, leaving Now at the last
// event's instant. A reserved slot that was never scheduled may lie
// later (see Reserve); it passes once the clock reaches it. If
// simulated processes are still blocked when the queue empties, they
// stay parked (see LiveProcs); Close releases them.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t and then sets the clock
// to t.
func (e *Engine) RunUntil(t Time) {
	for e.step(t, true) {
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Dur) { e.RunUntil(e.now.Add(d)) }

// Close stops every coroutine, parked or idle, one at a time. A parked
// process unwinds through its deferred calls before the next coroutine
// is stopped, so those calls may touch simulation state as process code
// does. Close returns once every coroutine has exited. It must be called
// outside the simulation (not from a process or event), and is safe to
// call multiple times. After Close the engine must not be used.
func (e *Engine) Close() {
	for e.procs != nil {
		p := e.procs
		e.procs = p.all
		p.stop()
	}
}

// resume switches into process p's coroutine and returns once p parks
// again or finishes. It must only be called from engine context (inside
// an event callback). A panic in process code surfaces here, and so in
// the caller of Step or Run.
func (e *Engine) resume(p *Proc) { p.next() }
