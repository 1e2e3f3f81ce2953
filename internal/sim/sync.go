package sim

// Completion is a one-shot event that processes can await: the simulated
// analogue of a future. The zero value is not usable; construct with
// NewCompletion (or receive one from Engine.Go). Its owner may Rearm a
// done one for its next use, so a pooled record keeps one Completion
// for its whole life.
//
// The first waiter is kept inline: most completions have exactly one
// (the proc that issued the operation), and awaiting them then
// allocates nothing.
type Completion struct {
	eng     *Engine
	done    bool
	waiter  *Proc   // first waiter
	waiters []*Proc // later waiters, in arrival order
	thens   []func()
}

// NewCompletion returns an incomplete Completion bound to e.
func NewCompletion(e *Engine) *Completion { return &Completion{eng: e} }

// Done reports whether Complete has been called.
func (c *Completion) Done() bool { return c.done }

// Rearm makes c incomplete again for its next use. It panics if a waiter
// or a Then callback is still registered: only a completion nobody can
// be waiting on may be reused.
func (c *Completion) Rearm() {
	if c.waiter != nil || len(c.waiters) > 0 || len(c.thens) > 0 {
		panic("sim: rearming a completion that is still awaited")
	}
	c.done = false
}

// Complete marks the completion done, wakes all awaiting processes, and
// fires Then callbacks at the current instant. Completing twice is a
// no-op.
func (c *Completion) Complete() {
	if c.done {
		return
	}
	c.done = true
	if c.waiter != nil {
		c.waiter.unparkAfter(0)
		c.waiter = nil
	}
	for _, w := range c.waiters {
		w.unparkAfter(0)
	}
	c.waiters = nil
	for _, fn := range c.thens {
		c.eng.Schedule(0, fn)
	}
	c.thens = nil
}

// Then registers fn to run (as an engine event) when the completion
// fires; if it already has, fn runs at the current instant.
func (c *Completion) Then(fn func()) {
	if c.done {
		c.eng.Schedule(0, fn)
		return
	}
	c.thens = append(c.thens, fn)
}

// Await blocks p until the completion is done. If it is already done,
// Await returns immediately without yielding.
func (p *Proc) Await(c *Completion) {
	if c.done {
		return
	}
	if c.waiter == nil {
		c.waiter = p
	} else {
		c.waiters = append(c.waiters, p)
	}
	p.park()
}

// Group counts outstanding work, like sync.WaitGroup but for simulated
// processes. Construct with NewGroup.
type Group struct {
	eng *Engine
	n   int
	c   *Completion
}

// NewGroup returns a group with zero outstanding work.
func NewGroup(e *Engine) *Group { return &Group{eng: e, c: NewCompletion(e)} }

// Add registers delta additional units of outstanding work.
func (g *Group) Add(delta int) {
	g.n += delta
	if g.n < 0 {
		panic("sim: negative group counter")
	}
	if g.n == 0 {
		g.c.Complete()
	}
}

// Done marks one unit of work finished.
func (g *Group) Done() { g.Add(-1) }

// Wait blocks p until the counter reaches zero.
func (g *Group) Wait(p *Proc) {
	if g.n == 0 {
		return
	}
	p.Await(g.c)
}

// Queue is a FIFO of items with blocking Pop (and blocking Push when
// bounded), used to model hardware queues, mailboxes, and sockets.
type Queue[T any] struct {
	eng      *Engine
	items    []T
	cap      int // 0 means unbounded
	poppers  []*Proc
	pushers  []*Proc
	maxDepth int
}

// NewQueue returns an unbounded queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{eng: e} }

// NewBoundedQueue returns a queue that blocks pushers when it holds
// capacity items. capacity must be positive.
func NewBoundedQueue[T any](e *Engine, capacity int) *Queue[T] {
	if capacity <= 0 {
		panic("sim: queue capacity must be positive")
	}
	return &Queue[T]{eng: e, cap: capacity}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// MaxDepth reports the high-water mark of the queue length.
func (q *Queue[T]) MaxDepth() int { return q.maxDepth }

// popHead removes and returns the head of a nonempty FIFO slice. It
// zeroes the vacated slot, so the array pins nothing, and rewinds a
// drained slice to length zero in place, so a steady stream of one push
// per pop keeps appending into the same slot instead of walking off the
// end of its array and reallocating.
func popHead[T any](s *[]T) T {
	v := (*s)[0]
	var zero T
	(*s)[0] = zero
	if len(*s) == 1 {
		*s = (*s)[:0]
	} else {
		*s = (*s)[1:]
	}
	return v
}

// wakeOne unparks the first waiter in the given list, if any.
func wakeOne(list *[]*Proc) {
	if len(*list) == 0 {
		return
	}
	popHead(list).unparkAfter(0)
}

// Push appends v, blocking p while a bounded queue is full.
func (q *Queue[T]) Push(p *Proc, v T) {
	for q.cap > 0 && len(q.items) >= q.cap {
		q.pushers = append(q.pushers, p)
		p.park()
	}
	q.items = append(q.items, v)
	if len(q.items) > q.maxDepth {
		q.maxDepth = len(q.items)
	}
	wakeOne(&q.poppers)
}

// TryPush appends v without blocking and reports whether it fit. It may
// be called from engine context (event callbacks), not only processes.
func (q *Queue[T]) TryPush(v T) bool {
	if q.cap > 0 && len(q.items) >= q.cap {
		return false
	}
	q.items = append(q.items, v)
	if len(q.items) > q.maxDepth {
		q.maxDepth = len(q.items)
	}
	wakeOne(&q.poppers)
	return true
}

// Pop removes and returns the head item, blocking p while empty.
func (q *Queue[T]) Pop(p *Proc) T {
	for len(q.items) == 0 {
		q.poppers = append(q.poppers, p)
		p.park()
	}
	v := popHead(&q.items)
	wakeOne(&q.pushers)
	return v
}

// Semaphore is a counted resource with FIFO queuing, used to model
// exclusive or limited hardware resources (DMA engines, accelerator
// slots, outstanding-request limits).
type Semaphore struct {
	eng     *Engine
	n       int
	waiters []*Proc
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(e *Engine, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore count")
	}
	return &Semaphore{eng: e, n: n}
}

// Acquire takes one permit, blocking p until one is free.
func (s *Semaphore) Acquire(p *Proc) {
	for s.n == 0 {
		s.waiters = append(s.waiters, p)
		p.park()
	}
	s.n--
}

// Release returns one permit and wakes a waiter if any.
func (s *Semaphore) Release() {
	s.n++
	wakeOne(&s.waiters)
}
