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
	// Warm-up: grow the pool, every bucket's capacity, and the spill
	// machinery to steady state.
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
// finished proc's coroutine waits idle, Go + one Sleep + finish reuses
// it, its wakeup thunk and its Proc, so the returned Completion is the
// only allocation.
func TestProcSpawnSteadyStateAllocs(t *testing.T) {
	e := New()
	defer e.Close()
	body := func(p *Proc) { p.Sleep(100) }
	spawn := func() {
		e.Go("short", body)
		e.Run()
	}
	for i := 0; i < 1_000; i++ {
		spawn()
	}
	if allocs := testing.AllocsPerRun(10_000, spawn); allocs > 1 {
		t.Fatalf("steady-state spawn allocates %.2f/op, want <= 1 (the Completion)", allocs)
	}
}
