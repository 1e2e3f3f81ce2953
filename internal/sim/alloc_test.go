package sim

import "testing"

// TestEngineSteadyStateZeroAlloc is the pooling gate: once the event
// pool and wheel buckets are warm, a Schedule+Step cycle must not
// allocate. It runs in the race job too (the trace is deterministic —
// seeded RNG, fixed warm-up — so the assertion is stable under -race),
// which keeps the free list itself honest about regressions.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := New()
	rng := NewRNG(3)
	var fn func()
	fn = func() { e.Schedule(Dur(rng.Intn(1_000_000)), fn) }
	for i := 0; i < 512; i++ {
		e.Schedule(Dur(rng.Intn(1_000_000)), fn)
	}
	// Warm-up: grow the event pool to the in-flight population. Wheel
	// buckets are intrusive lists, so they have no capacity to grow.
	for i := 0; i < 300_000; i++ {
		e.Step()
	}
	if allocs := testing.AllocsPerRun(20_000, func() { e.Step() }); allocs != 0 {
		t.Fatalf("steady-state Schedule+Step allocates %.2f/op, want 0", allocs)
	}
}

// TestProcSleepSteadyStateZeroAlloc extends the gate through the proc
// layer: a parked process waking via the cached wakeFn thunk must not
// allocate either.
func TestProcSleepSteadyStateZeroAlloc(t *testing.T) {
	e := New()
	defer e.Close()
	e.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(100)
		}
	})
	for i := 0; i < 10_000; i++ {
		e.Step()
	}
	if allocs := testing.AllocsPerRun(20_000, func() { e.Step() }); allocs != 0 {
		t.Fatalf("steady-state Sleep wakeup allocates %.2f/op, want 0", allocs)
	}
}

// TestProcParkResumeSteadyStateZeroAlloc gates Park and Resume: a proc
// that parks with no wakeup and is resumed by a cached event callback,
// the round trip of a memory access's event chain, must not allocate.
func TestProcParkResumeSteadyStateZeroAlloc(t *testing.T) {
	e := New()
	defer e.Close()
	e.Go("parker", func(p *Proc) {
		resume := p.Resume
		for {
			e.Schedule(100, resume)
			p.Park()
		}
	})
	for i := 0; i < 10_000; i++ {
		e.Step()
	}
	if allocs := testing.AllocsPerRun(20_000, func() { e.Step() }); allocs != 0 {
		t.Fatalf("steady-state Park/Resume round trip allocates %.2f/op, want 0", allocs)
	}
}

// TestProcSpawnSteadyStateAllocs gates the coroutine pool: once a
// finished proc's coroutine waits idle, a start + one Sleep + finish
// reuses it, its wakeup thunk and its Proc. Go's returned Completion is
// then its only allocation, and a detached Spawn allocates nothing.
func TestProcSpawnSteadyStateAllocs(t *testing.T) {
	body := func(p *Proc) { p.Sleep(100) }
	for _, row := range []struct {
		name  string
		want  float64
		start func(e *Engine)
	}{
		{"go", 1, func(e *Engine) { e.Go("short", body) }},
		{"spawn", 0, func(e *Engine) { e.Spawn("short", body) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			e := New()
			defer e.Close()
			spawn := func() {
				row.start(e)
				e.Run()
			}
			for i := 0; i < 1_000; i++ {
				spawn()
			}
			if allocs := testing.AllocsPerRun(10_000, spawn); allocs > row.want {
				t.Fatalf("steady-state %s allocates %.2f/op, want <= %.0f", row.name, allocs, row.want)
			}
		})
	}
}

// TestQueueSteadyStateAllocs gates the queue's buffers: a popper parks
// on an empty queue, an event's TryPush wakes it, and it pops and parks
// again. Once warm, the cycle reuses the slots the last cycle vacated,
// in both the item and the waiter ring, and allocates nothing.
func TestQueueSteadyStateAllocs(t *testing.T) {
	e := New()
	defer e.Close()
	q := NewQueue[int](e)
	e.Go("popper", func(p *Proc) {
		for {
			q.Pop(p)
		}
	})
	push := func() { q.TryPush(1) }
	cycle := func() {
		e.Schedule(10, push)
		e.Run()
	}
	for i := 0; i < 1_000; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(10_000, cycle); allocs != 0 {
		t.Fatalf("steady-state push/pop cycle allocates %.2f/op, want 0", allocs)
	}
}

// TestQueueDeepSteadyStateAllocs: a queue whose depth swings between 1
// and 8, with two poppers taking turns, allocates nothing once its rings
// have held their peak length, however far the head has moved round.
func TestQueueDeepSteadyStateAllocs(t *testing.T) {
	e := New()
	defer e.Close()
	q := NewQueue[int](e)
	for range 2 {
		e.Go("popper", func(p *Proc) {
			for {
				q.Pop(p)
				p.Sleep(3)
			}
		})
	}
	burst := func() {
		for i := range 8 {
			q.TryPush(i)
		}
	}
	cycle := func() {
		e.Schedule(10, burst)
		e.Run()
	}
	for i := 0; i < 1_000; i++ {
		cycle()
	}
	if q.MaxDepth() < 7 {
		t.Fatalf("queue peaked at %d items, want the burst to queue", q.MaxDepth())
	}
	if allocs := testing.AllocsPerRun(10_000, cycle); allocs != 0 {
		t.Fatalf("steady-state burst cycle allocates %.2f/op, want 0", allocs)
	}
}

// TestFIFOMatchesSlice drives a fifo and a plain slice with the same
// random pushes and pops, across growths and wrap-arounds, and compares
// every pop and length.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := NewRNG(7)
	var f fifo[int]
	var ref []int
	for i := 0; i < 100_000; i++ {
		if len(ref) == 0 || rng.Intn(5) < 3 {
			f.push(i)
			ref = append(ref, i)
		} else {
			got, want := f.pop(), ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("step %d: popped %d, want %d", i, got, want)
			}
		}
		if f.n != len(ref) {
			t.Fatalf("step %d: fifo holds %d, want %d", i, f.n, len(ref))
		}
		if len(ref) > 200 {
			for len(ref) > 0 {
				if got := f.pop(); got != ref[0] {
					t.Fatalf("draining at step %d: popped %d, want %d", i, got, ref[0])
				}
				ref = ref[1:]
			}
		}
	}
}
