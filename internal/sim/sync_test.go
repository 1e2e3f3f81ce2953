package sim

import "testing"

func TestQueueBlockingPop(t *testing.T) {
	e := New()
	defer e.Close()
	q := NewQueue[int](e)
	var got int
	var at Time
	e.Go("consumer", func(p *Proc) {
		got = q.Pop(p)
		at = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(40)
		q.Push(p, 7)
	})
	e.Run()
	if got != 7 || at != 40 {
		t.Fatalf("got %d at %v, want 7 at 40", got, at)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := New()
	defer e.Close()
	q := NewQueue[int](e)
	var got []int
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Push(p, i)
		}
	})
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want 0..4 in order", got)
		}
	}
}

func TestBoundedQueueBlocksPusher(t *testing.T) {
	e := New()
	defer e.Close()
	q := NewBoundedQueue[int](e, 2)
	var pushedAll Time
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			q.Push(p, i)
		}
		pushedAll = p.Now()
	})
	e.Go("consumer", func(p *Proc) {
		p.Sleep(100)
		for i := 0; i < 3; i++ {
			q.Pop(p)
		}
	})
	e.Run()
	if pushedAll != 100 {
		t.Fatalf("third push completed at %v, want 100 (after a pop)", pushedAll)
	}
	if q.MaxDepth() != 2 {
		t.Fatalf("MaxDepth = %d, want 2", q.MaxDepth())
	}
}

func TestQueueTryOps(t *testing.T) {
	e := New()
	defer e.Close()
	q := NewBoundedQueue[string](e, 1)
	if !q.TryPush("x") {
		t.Fatal("TryPush on empty failed")
	}
	if q.TryPush("y") {
		t.Fatal("TryPush over capacity succeeded")
	}
	if q.Len() != 1 || q.items.buf[q.items.head] != "x" {
		t.Fatalf("queue holds %q, want [x]", q.items.buf)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := New()
	defer e.Close()
	s := NewSemaphore(e, 2)
	inUse, maxInUse := 0, 0
	for i := 0; i < 5; i++ {
		e.Go("worker", func(p *Proc) {
			s.Acquire(p)
			inUse++
			if inUse > maxInUse {
				maxInUse = inUse
			}
			p.Sleep(10)
			inUse--
			s.Release()
		})
	}
	e.Run()
	if maxInUse != 2 {
		t.Fatalf("max concurrent = %d, want 2", maxInUse)
	}
	if s.n != 2 {
		t.Fatalf("%d permits free, want 2", s.n)
	}
}

func TestGroupWait(t *testing.T) {
	e := New()
	defer e.Close()
	g := NewGroup(e)
	g.Add(3)
	for i := 1; i <= 3; i++ {
		d := Dur(i * 10)
		e.Go("w", func(p *Proc) {
			p.Sleep(d)
			g.Done()
		})
	}
	var at Time
	e.Go("waiter", func(p *Proc) {
		g.Wait(p)
		at = p.Now()
	})
	e.Run()
	if at != 30 {
		t.Fatalf("group wait released at %v, want 30", at)
	}
}

func TestGroupWaitOnZeroIsImmediate(t *testing.T) {
	e := New()
	defer e.Close()
	g := NewGroup(e)
	ran := false
	e.Go("w", func(p *Proc) {
		g.Wait(p)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("Wait on empty group blocked")
	}
}
