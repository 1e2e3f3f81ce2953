package sim

// Proc is a simulated process: workload code that can block on virtual
// time (Sleep), on completions, queues and semaphores, while the engine
// interleaves it deterministically with every other process.
//
// A Proc's function runs on its own goroutine, but the engine guarantees
// that at most one goroutine in the whole simulation executes at a time,
// so process code may freely touch shared simulation state without locks.
type Proc struct {
	Eng    *Engine
	name   string
	wake   chan struct{}
	wakeFn func() // cached resume thunk: one closure per proc, not per park
	dead   bool
	dying  bool // killed by Close: holds Eng.unwinding until its goroutine exits
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
	done := NewCompletion(e)
	p := &Proc{Eng: e, name: name, wake: make(chan struct{})}
	p.wakeFn = func() { e.resume(p) }
	e.live++
	e.Schedule(0, func() {
		e.goroutines++
		go func() {
			defer p.exit()
			p.waitBaton()
			fn(p)
			p.finish(done)
		}()
		e.resume(p)
	})
	return done
}

// exit ends the process goroutine. A process killed by Close arrives
// unwinding with procStopped; it hands Eng.unwinding to the next killed
// process, and the last one to exit releases Close.
func (p *Proc) exit() {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := r.(procStopped); !ok {
		panic(r)
	}
	e := p.Eng
	e.goroutines--
	if e.goroutines == 0 {
		close(e.unwound)
	}
	e.unwinding.Unlock()
}

// kill unwinds the process after Close. Killed processes wake together,
// so the first kill takes Eng.unwinding: deferred calls then run one
// process at a time, as process code always does. A deferred call that
// parks again lands here a second time and must not lock twice.
func (p *Proc) kill() {
	if !p.dying {
		p.dying = true
		p.Eng.unwinding.Lock()
	}
	panic(procStopped{})
}

// waitBaton blocks until the engine hands this process the baton.
func (p *Proc) waitBaton() {
	select {
	case <-p.wake:
	case <-p.Eng.stopped:
		p.kill()
	}
}

// park returns the baton to the engine and blocks until resumed. Process
// code calls this (via Sleep/Await/...) after arranging for a wakeup.
func (p *Proc) park() {
	e := p.Eng
	e.parked++
	select {
	case e.yield <- struct{}{}:
	case <-e.stopped:
		p.kill()
	}
	p.waitBaton()
	e.parked--
}

// unparkAfter schedules this process to resume d from now. The cached
// wakeFn keeps every park/unpark cycle (Sleep, Await, queue and
// semaphore waits) allocation-free.
func (p *Proc) unparkAfter(d Dur) {
	e := p.Eng
	e.At(e.now.Add(d), p.wakeFn)
}

// finish marks the process done and returns the baton for the last time.
func (p *Proc) finish(done *Completion) {
	e := p.Eng
	p.dead = true
	e.live--
	done.Complete()
	if p.dying { // fn recovered Close's kill and returned
		panic(procStopped{})
	}
	e.goroutines--
	select {
	case e.yield <- struct{}{}:
	case <-e.stopped:
	}
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
