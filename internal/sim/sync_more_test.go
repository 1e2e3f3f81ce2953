package sim

import "testing"

func TestCompletionThenBeforeAndAfter(t *testing.T) {
	e := New()
	defer e.Close()
	c := NewCompletion(e)
	var order []string
	c.Then(func() { order = append(order, "registered-before") })
	e.Schedule(10, func() {
		c.Complete()
		order = append(order, "completer")
	})
	e.Run()
	// Then callbacks fire as events after the completing event returns.
	if len(order) != 2 || order[0] != "completer" || order[1] != "registered-before" {
		t.Fatalf("order = %v", order)
	}
	// Registering on an already-done completion fires at the current
	// instant.
	fired := false
	c.Then(func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("Then on done completion never fired")
	}
}

func TestCompletionThenChaining(t *testing.T) {
	e := New()
	defer e.Close()
	a := NewCompletion(e)
	b := NewCompletion(e)
	var doneAt Time
	b.Then(func() { doneAt = e.Now() })
	a.Then(func() { e.Schedule(5, b.Complete) })
	e.Schedule(10, a.Complete)
	e.Run()
	if doneAt != 15 {
		t.Fatalf("chained completion at %v, want 15", doneAt)
	}
}

func TestEngineRunFiredCount(t *testing.T) {
	e := New()
	defer e.Close()
	for i := 0; i < 25; i++ {
		e.Schedule(Dur(i), func() {})
	}
	e.Run()
	if e.Fired() != 25 {
		t.Fatalf("Fired = %d", e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d", e.Pending())
	}
}
