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

// TestCompletionRearm checks that a done completion can be rearmed and
// awaited again, and that rearming one still awaited, by a parked proc
// or a Then callback, panics.
func TestCompletionRearm(t *testing.T) {
	e := New()
	defer e.Close()
	c := NewCompletion(e)
	var woke []Time
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Await(c)
			woke = append(woke, p.Now())
			c.Rearm()
		}
	})
	e.Schedule(10, c.Complete)
	e.Schedule(25, c.Complete)
	e.Run()
	if len(woke) != 2 || woke[0] != 10 || woke[1] != 25 {
		t.Fatalf("waiter woke at %v, want [10 25]", woke)
	}
	if c.Done() {
		t.Fatal("a rearmed completion reads done")
	}

	parked := NewCompletion(e)
	e.Go("parked", func(p *Proc) { p.Await(parked) })
	e.Run()
	then := NewCompletion(e)
	then.Then(func() {})
	for name, c := range map[string]*Completion{"parked waiter": parked, "then callback": then} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rearming a completion with a %s did not panic", name)
				}
			}()
			c.Rearm()
		}()
	}
}
