package sim

import "iter"

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
// and runs the fn of a later Go. A *Proc is therefore valid only until
// its fn returns; nothing may keep one past that.
type Proc struct {
	Eng  *Engine
	name string
	fn   func(p *Proc) // body of the current run; nil while idle
	done *Completion   // completes when fn returns

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
	p := e.idle
	if p != nil {
		e.idle = p.idle
	} else {
		p = &Proc{Eng: e, all: e.procs}
		p.next, p.stop = iter.Pull(p.run)
		p.wakeFn = func() { e.resume(p) }
		e.procs = p
	}
	p.name, p.fn, p.done = name, fn, NewCompletion(e)
	e.live++
	e.Schedule(0, p.wakeFn)
	return p.done
}

// run is the coroutine body. It runs one fn per Go, then goes idle on
// Eng.idle until the next Go resumes it or Close stops it. A process
// killed by Close unwinds as a procStopped panic, which ends here; any
// other panic leaves through Engine.resume to the caller of Step or Run.
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
		done.Complete()
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

// Yield lets every other event and process scheduled at the current
// instant run before this process continues.
func (p *Proc) Yield() { p.Sleep(0) }
