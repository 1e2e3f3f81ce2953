package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: workload code that can block on virtual
// time (Sleep), on completions, queues and semaphores, while the engine
// interleaves it deterministically with every other process.
//
// A Proc's function runs on a coroutine (iter.Pull). The engine switches
// into it to resume the process, and the process switches back when it
// parks or finishes, so exactly one of (engine, some process) executes at
// any instant and process code may freely touch shared simulation state
// without locks.
//
// Coroutines are pooled per engine: once fn returns, its Proc waits idle
// and runs the fn of a later Go or Spawn. A *Proc is therefore valid
// only until its fn returns; nothing may keep one past that.
type Proc struct {
	Eng  *Engine
	name string
	fn   func(p *Proc) // body of the current run; nil while idle
	done *Completion   // completes when fn returns; nil if Spawn started it
	// parked is set by Park and cleared by Resume: the process waits
	// with no wakeup arranged, for an event to Resume it.
	parked bool

	// The coroutine: next switches into it, yield (called inside it)
	// switches back, and stop unwinds it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	wakeFn func() // cached resume thunk: one closure per coroutine, not per park
	all    *Proc  // next in Engine.procs
	idle   *Proc  // next in Engine.idle
}

// procStopped is the panic payload used to unwind a process killed by
// Engine.Close.
type procStopped struct{}

// Name reports the name the process was started with.
func (p *Proc) Name() string { return p.name }

// Now reports current virtual time; shorthand for p.Eng.Now().
func (p *Proc) Now() Time { return p.Eng.Now() }

// Go starts a new simulated process running fn. The process begins
// executing at the current virtual instant, after already-queued events
// at this instant have run. It returns a Completion that completes when
// fn returns.
func (e *Engine) Go(name string, fn func(p *Proc)) *Completion {
	p := e.start(name, fn)
	p.done = NewCompletion(e)
	return p.done
}

// Spawn starts a detached process: it runs fn exactly as Go would, from
// the same event slot, but nothing can wait for it to finish, so it
// allocates no Completion.
func (e *Engine) Spawn(name string, fn func(p *Proc)) { e.start(name, fn) }

// start takes an idle coroutine, or builds one, and schedules its first
// resume: the start path Go and Spawn share.
func (e *Engine) start(name string, fn func(p *Proc)) *Proc {
	p := e.idle
	if p != nil {
		e.idle = p.idle
	} else {
		p = &Proc{Eng: e, all: e.procs}
		p.next, p.stop = iter.Pull(p.run)
		p.wakeFn = func() { e.resume(p) }
		e.procs = p
	}
	p.name, p.fn = name, fn
	e.live++
	e.Schedule(0, p.wakeFn)
	return p
}

// run is the coroutine body. It runs one fn per Go or Spawn, then goes
// idle on Eng.idle until the next start resumes it or Close stops it. A
// process killed by Close unwinds as a procStopped panic, which ends
// here; any other panic leaves through Engine.resume to the caller of
// Step or Run.
func (p *Proc) run(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procStopped); !ok {
				panic(r)
			}
		}
	}()
	p.yield = yield
	e := p.Eng
	for {
		p.fn(p)
		done := p.done
		p.fn, p.done = nil, nil
		e.live--
		if done != nil {
			done.Complete()
		}
		p.idle, e.idle = e.idle, p
		if !yield(struct{}{}) {
			return
		}
	}
}

// park switches back to the engine until resumed. Process code calls
// this (via Sleep/Await/...) after arranging for a wakeup. After Close
// the switch fails, and park unwinds the process.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
}

// Park parks the calling process without arranging any wakeup: only a
// Resume from an event callback ends the wait (or Close, which unwinds
// the process). A process parks this way when it hands its work to a
// chain of events that resumes it in the event where its last wakeup
// would have fired.
func (p *Proc) Park() {
	p.parked = true
	p.park()
}

// Resume switches into p, which Park parked, and returns once p parks
// again or finishes. It must be called from an event callback: p then
// runs inside that event's dispatch exactly as if the event had been its
// wakeup. Resume panics on a process that Park did not park: one that is
// running, sleeping, awaiting, waiting in a queue, or finished.
func (p *Proc) Resume() {
	if !p.parked {
		panic(fmt.Sprintf("sim: resuming process %q, which Park did not park", p.name))
	}
	p.parked = false
	p.Eng.resume(p)
}

// unparkAfter schedules this process to resume d from now. The cached
// wakeFn keeps every park/unpark cycle (Sleep, Await, queue and
// semaphore waits) allocation-free.
func (p *Proc) unparkAfter(d Dur) {
	e := p.Eng
	e.At(e.now.Add(d), p.wakeFn)
}

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d Dur) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.unparkAfter(d)
	p.park()
}
