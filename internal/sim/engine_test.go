package sim

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of scheduling order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var trace []string
	e.Schedule(10, func() {
		trace = append(trace, "a")
		e.Schedule(5, func() { trace = append(trace, "c") })
		e.Schedule(0, func() { trace = append(trace, "b") })
	})
	e.Run()
	want := "a,b,c"
	got := trace[0] + "," + trace[1] + "," + trace[2]
	if got != want {
		t.Fatalf("trace = %s, want %s", got, want)
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired() = %d, want 3", e.Fired())
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntilStopsAtBoundary(t *testing.T) {
	e := New()
	fired := 0
	e.Schedule(10, func() { fired++ })
	e.Schedule(20, func() { fired++ })
	e.Schedule(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.RunFor(10)
	if fired != 3 {
		t.Fatalf("fired = %d after RunFor, want 3", fired)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed uint64) []int64 {
		e := New()
		rng := NewRNG(seed)
		var trace []int64
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 4 {
				return
			}
			d := Dur(rng.Intn(100))
			e.Schedule(d, func() {
				trace = append(trace, int64(e.Now()))
				spawn(depth + 1)
				spawn(depth + 1)
			})
		}
		spawn(0)
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any batch of non-negative delays, execution visits events
// in nondecreasing time order.
func TestEngineOrderingProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := New()
		var last Time = -1
		ok := true
		for _, d := range delays {
			e.Schedule(Dur(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineTimeStringFormats(t *testing.T) {
	cases := []struct {
		d    Dur
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{14 * Microsecond, "14.000µs"},
		{25 * Millisecond, "25.000ms"},
		{90 * Second, "90.000s"},
		{-3 * Microsecond, "-3000ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDurScale(t *testing.T) {
	if got := (100 * Nanosecond).Scale(2.5); got != 250 {
		t.Fatalf("Scale = %v, want 250", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative scale did not panic")
		}
	}()
	Dur(1).Scale(-1)
}

// TestReservedSlotFiresInPlace pins the reserved-slot contract: an
// event scheduled at a slot fires exactly where one scheduled when the
// slot was reserved would have, ahead of later-scheduled events at its
// instant and behind earlier ones; Passed follows the dispatch order
// inside events, after Step, and once the queue drains.
func TestReservedSlotFiresInPlace(t *testing.T) {
	e := New()
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }
	var s Slot
	e.Schedule(100, log("before")) // queued ahead of the reservation
	e.Schedule(50, func() {
		s = e.Reserve(50)
		e.Schedule(50, log("after")) // queued behind it
		if e.Passed(s) {
			t.Error("a slot 50 ns ahead has passed")
		}
	})
	e.Schedule(100, func() {
		// Dispatched before the reservation's seq: the slot is ahead.
		if e.Passed(s) {
			t.Error("slot passed before the event that precedes it")
		}
		e.AtSlot(s, log("slot"))
	})
	e.Run()
	want := "before slot after"
	if g := strings.Join(got, " "); g != want {
		t.Fatalf("firing order %q, want %q", g, want)
	}
	if !e.Passed(s) {
		t.Error("slot at Now has not passed once the queue drained")
	}

	// After Step, a slot passes only if it precedes the event Step ran.
	e2 := New()
	early := e2.Reserve(20)
	e2.Schedule(20, func() {})
	var late Slot
	e2.Schedule(10, func() { late = e2.Reserve(10) })
	e2.Step()
	e2.Step()
	if !e2.Passed(early) || e2.Passed(late) {
		t.Fatalf("after Step at %v: early passed %v, late passed %v; want true, false",
			e2.Now(), e2.Passed(early), e2.Passed(late))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AtSlot accepted a slot that has passed")
			}
		}()
		e2.AtSlot(early, func() {})
	}()
	e2.Run()
	if !e2.Passed(late) || e2.Pending() != 0 {
		t.Fatalf("after Run: late passed %v, pending %d", e2.Passed(late), e2.Pending())
	}
}

// TestEngineFootprint holds an engine, its timing wheel included, to
// 100 KiB. Every trial builds a fresh engine, and simulation campaigns
// run many of them side by side, so the bucket arrays' size caps how
// many fit. Three levels of 4096 one-pointer buckets take 96 KiB.
func TestEngineFootprint(t *testing.T) {
	const limit = 100 << 10
	if size := unsafe.Sizeof(Engine{}); size > limit {
		t.Fatalf("an Engine takes %d bytes, want at most %d", size, limit)
	}
}
