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

// TestQueueSteadyStateAllocs gates the queue's slices: a popper parks
// on an empty queue, an event's TryPush wakes it, and it pops and parks
// again. Once warm, the cycle appends into the slots the last cycle
// vacated, in both the item and the waiter slice, and allocates nothing.
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
