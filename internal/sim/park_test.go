package sim

import (
	"fmt"
	"slices"
	"testing"
)

// parkLog runs one proc that waits twice, 300 ns then 200 ns, by wait,
// while an event at 300 ns chains two more at that instant, so events
// queued before and after the wake surround it. The proc logs each wake
// and schedules an event at once after it. parkLog returns the log of
// instants and names in firing order, and the events fired.
func parkLog(t *testing.T, wait func(p *Proc, d Dur)) ([]string, uint64) {
	t.Helper()
	e := New()
	defer e.Close()
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%d %s", e.Now(), what)) }
	e.At(300, func() {
		note("same-1")
		e.Schedule(0, func() {
			note("same-2")
			e.Schedule(0, func() { note("same-3") })
		})
	})
	e.Go("waiter", func(p *Proc) {
		note("start")
		for _, d := range []Dur{300, 200} {
			wait(p, d)
			note("woke")
			e.Schedule(0, func() { note("after-wake") })
		}
	})
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("%d procs still live", e.LiveProcs())
	}
	return log, e.Fired()
}

// TestParkResumeKeepsSleepSlot pins Park and Resume to Sleep's firing
// order: a proc parked with Park and resumed from a callback scheduled
// with Schedule or At wakes in the event its Sleep's wakeup took, so
// every event around it fires where it did. The golden log was taken
// with Sleep.
func TestParkResumeKeepsSleepSlot(t *testing.T) {
	want := []string{
		"0 start",
		"300 same-1",
		"300 woke",
		"300 same-2",
		"300 after-wake",
		"300 same-3",
		"500 woke",
		"500 after-wake",
	}
	const wantFired = 8
	for _, row := range []struct {
		name string
		wait func(p *Proc, d Dur)
	}{
		{"sleep", func(p *Proc, d Dur) { p.Sleep(d) }},
		{"schedule", func(p *Proc, d Dur) {
			p.Eng.Schedule(d, func() { p.Resume() })
			p.Park()
		}},
		{"at", func(p *Proc, d Dur) {
			p.Eng.At(p.Now().Add(d), func() { p.Resume() })
			p.Park()
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			got, fired := parkLog(t, row.wait)
			if !slices.Equal(got, want) || fired != wantFired {
				t.Fatalf("fired %d events in order\n %q\nwant %d in order\n %q", fired, got, wantFired, want)
			}
		})
	}
}

// TestResumeRefusesUnparkedProc checks Resume's guard: it panics on a
// proc that Park did not park, whatever else it is doing, and leaves
// that proc's own wakeup to fire.
func TestResumeRefusesUnparkedProc(t *testing.T) {
	refuses := func(t *testing.T, p *Proc) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("Resume did not panic")
			}
		}()
		p.Resume()
	}
	for _, row := range []struct {
		name string
		body func(e *Engine, p *Proc)
	}{
		{"sleeping", func(_ *Engine, p *Proc) { p.Sleep(100) }},
		{"awaiting", func(e *Engine, p *Proc) {
			c := NewCompletion(e)
			e.Schedule(100, c.Complete)
			p.Await(c)
		}},
		{"queued", func(e *Engine, p *Proc) {
			q := NewQueue[int](e)
			e.Schedule(100, func() { q.TryPush(1) })
			q.Pop(p)
		}},
		{"resumed", func(e *Engine, p *Proc) {
			e.Schedule(10, p.Resume)
			p.Park()
			p.Sleep(90)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			e := New()
			defer e.Close()
			var woke Time
			var p *Proc
			e.Go(row.name, func(q *Proc) {
				p = q
				row.body(e, q)
				woke = q.Now()
			})
			e.At(50, func() { refuses(t, p) })
			e.Run()
			if woke != 100 || e.LiveProcs() != 0 {
				t.Fatalf("proc woke at %v with %d live, want 100 and 0", woke, e.LiveProcs())
			}
		})
	}
	t.Run("running", func(t *testing.T) {
		e := New()
		defer e.Close()
		e.Go("self", func(p *Proc) { refuses(t, p) })
		e.Run()
	})
	t.Run("finished", func(t *testing.T) {
		e := New()
		defer e.Close()
		var p *Proc
		e.Go("short", func(q *Proc) { p = q })
		e.Run()
		e.Schedule(0, func() { refuses(t, p) })
		e.Run()
	})
}

// TestCloseUnwindsParkedProc checks that Close unwinds a proc Park
// parked, like any parked proc: its deferred calls run.
func TestCloseUnwindsParkedProc(t *testing.T) {
	e := New()
	unwound := false
	e.Go("parked", func(p *Proc) {
		defer func() { unwound = true }()
		p.Park()
		t.Error("a parked proc ran past Park with nothing to resume it")
	})
	e.Run()
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want the parked proc", e.LiveProcs())
	}
	e.Close()
	if !unwound {
		t.Fatal("Close did not run the parked proc's deferred calls")
	}
}
