package sim

import (
	"runtime"
	"strings"
	"testing"
)

func TestProcSleepAdvancesTime(t *testing.T) {
	e := New()
	defer e.Close()
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		woke = p.Now()
	})
	e.Run()
	if woke != Time(100*Microsecond) {
		t.Fatalf("woke at %v, want 100µs", woke)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	e := New()
	defer e.Close()
	var trace []string
	e.Go("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			trace = append(trace, "a")
			p.Sleep(10)
		}
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(5)
		for i := 0; i < 3; i++ {
			trace = append(trace, "b")
			p.Sleep(10)
		}
	})
	e.Run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcCompletionAwait(t *testing.T) {
	e := New()
	defer e.Close()
	worker := e.Go("worker", func(p *Proc) { p.Sleep(50) })
	var waitedUntil Time
	e.Go("waiter", func(p *Proc) {
		p.Await(worker)
		waitedUntil = p.Now()
	})
	e.Run()
	if waitedUntil != 50 {
		t.Fatalf("waiter resumed at %v, want 50", waitedUntil)
	}
}

func TestProcAwaitCompletedIsImmediate(t *testing.T) {
	e := New()
	defer e.Close()
	c := NewCompletion(e)
	c.Complete()
	c.Complete() // idempotent
	var at Time
	e.Go("w", func(p *Proc) {
		p.Sleep(7)
		p.Await(c)
		at = p.Now()
	})
	e.Run()
	if at != 7 {
		t.Fatalf("await of done completion moved time: %v", at)
	}
}

func TestProcYieldOrdersWithEvents(t *testing.T) {
	e := New()
	defer e.Close()
	var trace []string
	e.Go("p", func(p *Proc) {
		trace = append(trace, "p1")
		e.Schedule(0, func() { trace = append(trace, "ev") })
		p.Sleep(0)
		trace = append(trace, "p2")
	})
	e.Run()
	if len(trace) != 3 || trace[0] != "p1" || trace[1] != "ev" || trace[2] != "p2" {
		t.Fatalf("trace = %v", trace)
	}
}

func TestProcSpawnsProc(t *testing.T) {
	e := New()
	defer e.Close()
	var inner Time
	e.Go("outer", func(p *Proc) {
		p.Sleep(10)
		child := e.Go("inner", func(q *Proc) {
			q.Sleep(5)
			inner = q.Now()
		})
		p.Await(child)
		if p.Now() != 15 {
			t.Errorf("outer resumed at %v, want 15", p.Now())
		}
	})
	e.Run()
	if inner != 15 {
		t.Fatalf("inner finished at %v, want 15", inner)
	}
}

func TestEngineCloseReleasesParkedProcs(t *testing.T) {
	e := New()
	c := NewCompletion(e) // never completed
	e.Go("stuck", func(p *Proc) { p.Await(c) })
	e.Run()
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1 (deadlocked)", e.LiveProcs())
	}
	e.Close()
	e.Close() // safe to double-close
}

// TestEngineCloseUnwindsKilledProcsOneAtATime pins Close's contract for
// deferred calls in killed processes: they touch shared simulation
// state (a map, a Group whose Done schedules engine events) without
// locks, so they must run one process at a time, and Close must return
// only after the last of them has run. One deferred call parks again
// mid-unwind, which must neither deadlock nor skip the rest.
func TestEngineCloseUnwindsKilledProcsOneAtATime(t *testing.T) {
	const n = 64
	e := New()
	never := NewCompletion(e)
	grp := NewGroup(e)
	grp.Add(n)
	pending := map[int]int{0: n, 1: n}
	for i := 0; i < n; i++ {
		e.Go("stuck", func(p *Proc) {
			defer grp.Done()
			defer func() { pending[i%2]-- }()
			if i == 0 {
				defer p.Sleep(1)
			}
			p.Await(never)
		})
	}
	e.Run()
	if e.LiveProcs() != n {
		t.Fatalf("LiveProcs = %d, want %d parked", e.LiveProcs(), n)
	}
	e.Close()
	if pending[0] != n/2 || pending[1] != n/2 {
		t.Fatalf("after Close, pending = %v, want %d left in each (every deferred decrement run once)", pending, n/2)
	}
	if !grp.c.Done() {
		t.Fatalf("after Close, group counter = %d, want 0", grp.n)
	}
}

// TestProcPanicSurfacesFromRun pins where a panic in process code goes:
// out of Run, to its caller, instead of killing the program from a
// goroutine nobody can recover on. The engine still closes cleanly,
// unwinding a second proc that is parked.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := New()
	never := NewCompletion(e)
	unwound := false
	e.Go("stuck", func(p *Proc) {
		defer func() { unwound = true }()
		p.Await(never)
	})
	e.Go("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v from Run, want boom", r)
			}
		}()
		e.Run()
	}()
	e.Close()
	if !unwound {
		t.Fatal("Close did not unwind the parked proc")
	}
}

// procCoroutines counts the goroutines whose stack is in (*Proc).run:
// the coroutines of every engine in the test binary, and nothing else
// the runtime or other tests have running.
func procCoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		count := 0
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "sim.(*Proc).run(") {
				count++
			}
		}
		return count
	}
}

// TestEngineCloseReleasesEveryCoroutine checks that Close ends every
// coroutine it holds: the idle ones, whose procs finished and wait in
// the pool for the next Go, as well as the parked ones.
func TestEngineCloseReleasesEveryCoroutine(t *testing.T) {
	const n = 8
	before := procCoroutines()
	e := New()
	never := NewCompletion(e)
	for i := 0; i < n; i++ {
		e.Go("finishes", func(p *Proc) { p.Sleep(Dur(i)) })
		e.Go("stuck", func(p *Proc) { p.Await(never) })
	}
	e.Run()
	if e.LiveProcs() != n {
		t.Fatalf("LiveProcs = %d, want %d parked", e.LiveProcs(), n)
	}
	if got := procCoroutines() - before; got != 2*n {
		t.Fatalf("%d coroutines alive before Close, want %d idle and %d parked", got, n, n)
	}
	e.Close()
	if got := procCoroutines(); got != before {
		t.Fatalf("%d coroutines after Close, want %d as before New", got, before)
	}
}

func TestProcNegativeSleepPanics(t *testing.T) {
	e := New()
	defer e.Close()
	panicked := false
	e.Go("bad", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
				// Re-enter the engine cleanly: the proc still must finish.
			}
		}()
		p.Sleep(-1)
	})
	e.Run()
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}

func TestProcName(t *testing.T) {
	e := New()
	defer e.Close()
	e.Go("redis-server", func(p *Proc) {
		if p.Name() != "redis-server" {
			t.Errorf("Name() = %q", p.Name())
		}
	})
	e.Run()
}
