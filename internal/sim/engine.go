package sim

import "fmt"

// Handle identifies a cancelable scheduled event. The zero Handle is
// never issued, so it can mark "no timer pending".
type Handle uint64

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct one with New.
//
// Events live in a hierarchical timing wheel (wheel.go) and are pooled
// (pool.go), so steady-state scheduling — one Schedule plus one
// dispatched event — performs no allocation.
type Engine struct {
	now     Time
	seq     uint64
	q       queue
	pool    eventPool
	cancels map[Handle]*event // live cancelable events, by Handle
	pending int               // queued events not yet fired or canceled
	live    int               // processes started and not yet finished
	fired   uint64
	procs   *Proc // every coroutine, parked or idle, linked by Proc.all
	idle    *Proc // coroutines whose fn has returned, linked by Proc.idle
}

// New returns a fresh engine with virtual time zero and an empty queue.
func New() *Engine {
	return &Engine{q: newWheel()}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events waiting in the queue. Canceled
// events are not counted: they are dead the moment Cancel returns.
func (e *Engine) Pending() int { return e.pending }

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
	e.pending++
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
	h := Handle(ev.seq + 1)
	if e.cancels == nil {
		e.cancels = make(map[Handle]*event)
	}
	e.cancels[h] = ev
	return h
}

// ScheduleCancelable is Schedule returning a Handle that Cancel accepts.
func (e *Engine) ScheduleCancelable(d Dur, fn func()) Handle {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.AtCancelable(e.now.Add(d), fn)
}

// Cancel revokes a cancelable event that has not fired yet, reporting
// whether it did anything. The event is tombstoned in place — the wheel
// discards it when its slot drains — so Cancel is O(1) and never
// disturbs the firing order of live events. Canceling an event that
// already fired, was already canceled, or a zero Handle returns false.
func (e *Engine) Cancel(h Handle) bool {
	ev, ok := e.cancels[h]
	if !ok {
		return false
	}
	delete(e.cancels, h)
	ev.canceled = true
	ev.fn = nil
	e.pending--
	return true
}

// step fires the earliest live event, discarding canceled tombstones in
// passing, and reports whether one ran. With bounded true only events
// with at <= bound fire.
func (e *Engine) step(bound Time, bounded bool) bool {
	for {
		ev := e.q.pop(bound, bounded)
		if ev == nil {
			return false
		}
		if ev.canceled {
			e.pool.put(ev)
			continue
		}
		if ev.cancelable {
			delete(e.cancels, Handle(ev.seq+1))
		}
		e.now = ev.at
		e.pending--
		e.fired++
		fn := ev.fn
		e.pool.put(ev) // recycle before dispatch: fn may schedule into this slot
		fn()
		return true
	}
}

// Step executes the earliest pending event and reports whether one ran.
func (e *Engine) Step() bool { return e.step(0, false) }

// Run executes events until the queue drains. If simulated processes are
// still blocked when the queue empties, they stay parked (see LiveProcs);
// Close releases them.
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
