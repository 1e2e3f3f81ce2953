package sim

import "testing"

func TestEngineCancelStopsCallback(t *testing.T) {
	e := New()
	fired := false
	h := e.ScheduleCancelable(10, func() { fired = true })
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if !e.Cancel(h) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Cancel, want 0", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if e.Now() != 0 || e.Fired() != 0 {
		t.Fatalf("canceled event advanced the engine: now=%v fired=%d", e.Now(), e.Fired())
	}
}

func TestEngineCancelIsIdempotentAndDeadAfterFire(t *testing.T) {
	e := New()
	h := e.ScheduleCancelable(5, func() {})
	if !e.Cancel(h) || e.Cancel(h) {
		t.Fatal("Cancel must succeed exactly once")
	}
	h2 := e.ScheduleCancelable(5, func() {})
	e.Run()
	if e.Cancel(h2) {
		t.Fatal("Cancel succeeded after the event fired")
	}
	if e.Cancel(Handle{}) {
		t.Fatal("zero Handle canceled something")
	}
}

// TestEngineCancelStaleHandleSparesReusedEvent: once a cancelable
// event fires, the pool hands its struct to the next event scheduled,
// here another cancelable one. The first event's Handle must not cancel
// the second.
func TestEngineCancelStaleHandleSparesReusedEvent(t *testing.T) {
	e := New()
	var fired []int
	var h2 Handle
	h1 := e.ScheduleCancelable(5, func() {
		fired = append(fired, 1)
		h2 = e.ScheduleCancelable(5, func() { fired = append(fired, 2) })
	})
	e.RunUntil(5)
	if h1.ev != h2.ev {
		t.Fatal("test premise broken: the second event did not reuse the first's struct")
	}
	if e.Cancel(h1) {
		t.Fatal("a fired event's Handle canceled the event now in its struct")
	}
	e.Run()
	if len(fired) != 2 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2]", fired)
	}
}

func TestEngineCancelPreservesOrderAndClock(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(10, func() { got = append(got, 1) })
	h := e.ScheduleCancelable(20, func() { got = append(got, 99) })
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Cancel(h)
	// The canceled event at t=20 was scheduled ahead of the live t=20
	// event; RunUntil(20) must fire the live ones and stop exactly at 20.
	e.RunUntil(20)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got = %v, want [1 2]", got)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
	e.Run()
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("got = %v, want [1 2 3]", got)
	}
}

// TestEngineCancelThenEarlierSchedule pins the empty-wheel re-anchor:
// after an event beyond the horizon is canceled and the wheel drains, a
// new earlier event must still fire first.
func TestEngineCancelThenEarlierSchedule(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	h := e.ScheduleCancelable(2<<horizonBits, func() {}) // beyond the horizon, via spill
	e.Cancel(h)
	e.Run() // fires the live event; the canceled one left at Cancel
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10", e.Now())
	}
	fired := false
	e.Schedule(5, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 15 {
		t.Fatalf("post-cancel schedule broken: fired=%v now=%v", fired, e.Now())
	}
}

func TestEngineCancelManyInterleaved(t *testing.T) {
	e := New()
	rng := NewRNG(99)
	var fired, canceled int
	var handles []Handle
	for i := 0; i < 2000; i++ {
		d := queueDelay(rng)
		if rng.Bool(0.5) {
			handles = append(handles, e.ScheduleCancelable(d, func() { fired++ }))
		} else {
			e.Schedule(d, func() { fired++ })
		}
	}
	for i, h := range handles {
		if i%2 == 0 && e.Cancel(h) {
			canceled++
		}
	}
	want := 2000 - canceled
	if e.Pending() != want {
		t.Fatalf("Pending = %d, want %d", e.Pending(), want)
	}
	e.Run()
	if fired != want {
		t.Fatalf("fired = %d, want %d", fired, want)
	}
	if uint64(fired) != e.Fired() {
		t.Fatalf("Fired() = %d, want %d", e.Fired(), fired)
	}
}

// TestEngineCancelFreesEventAtOnce checks that Cancel takes a revoked
// event out of the queue at once, from any wheel level or the spill
// list: the pool hands its struct to the very next event scheduled, and
// a loop of armed-and-revoked watchdogs allocates nothing.
func TestEngineCancelFreesEventAtOnce(t *testing.T) {
	e := New()
	noop := func() {}
	for _, d := range []Dur{100, 1 << 20, 1 << 30, 2 << horizonBits} {
		h := e.ScheduleCancelable(d, noop)
		if !e.Cancel(h) || e.q.len() != 0 {
			t.Fatalf("delay %v: the wheel holds %d events after the only one was canceled", d, e.q.len())
		}
		if h2 := e.ScheduleCancelable(d, noop); h2.ev != h.ev {
			t.Fatalf("delay %v: the next event did not reuse the canceled one's struct", d)
		} else {
			e.Cancel(h2)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.Cancel(e.ScheduleCancelable(Second, noop)) }); allocs != 0 {
		t.Fatalf("an armed-and-revoked watchdog allocates %.3f objects, want 0", allocs)
	}
}
