package serving

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestOpenLoopContract pins openLoop and runScenario on a bare engine:
// every request is either completed or rejected, rejections record no
// latency, own queues keep each worker to its own requests, and a
// scenario body that can never finish is reported as a deadlock.
func TestOpenLoopContract(t *testing.T) {
	t.Run("rejections", func(t *testing.T) {
		eng := sim.New()
		defer eng.Close()
		var ph *phase
		n := 0
		err := runScenario(eng, Config{Workload: "reject"}, func(pr *sim.Proc) error {
			var err error
			ph, err = openLoop[int]{
				cfg: Config{Seed: 1, Requests: 90}, workers: 3, rps: 1e5,
				next: func() (int, int) { n++; return n, 0 },
				serve: func(wp *sim.Proc, _ int, r int) bool {
					wp.Sleep(20 * sim.Microsecond)
					return r%3 != 0
				},
			}.run(pr)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if ph.completed != 60 || ph.rejected != 30 {
			t.Fatalf("completed %d + rejected %d, want 60 + 30", ph.completed, ph.rejected)
		}
		if ph.lat.N() != int64(ph.completed) {
			t.Fatalf("histogram holds %d latencies, want %d", ph.lat.N(), ph.completed)
		}
		if ph.lastDone < ph.start || ph.window() <= 0 {
			t.Fatalf("window [%v, %v] is empty", ph.start, ph.lastDone)
		}
	})

	t.Run("own queues", func(t *testing.T) {
		eng := sim.New()
		defer eng.Close()
		const workers = 4
		served := make([]int, workers)
		exits := make([]int, workers)
		rng := sim.NewRNG(3)
		var ph *phase
		err := runScenario(eng, Config{Workload: "route"}, func(pr *sim.Proc) error {
			var err error
			ph, err = openLoop[int]{
				cfg: Config{Seed: 2, Requests: 200}, workers: workers, ownQueue: true, rps: 1e6,
				next: func() (int, int) { q := rng.Intn(workers); return q, q },
				serve: func(wp *sim.Proc, w, q int) bool {
					if q != w {
						t.Errorf("worker %d served a request routed to queue %d", w, q)
					}
					served[w]++
					wp.Sleep(sim.Microsecond)
					return true
				},
				exit: func(_ *sim.Proc, w int) { exits[w]++ },
			}.run(pr)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for w := range served {
			total += served[w]
			if exits[w] != 1 {
				t.Errorf("worker %d exited %d times, want once", w, exits[w])
			}
		}
		if total != 200 || ph.completed != 200 {
			t.Fatalf("served %d, completed %d, want 200", total, ph.completed)
		}
	})

	t.Run("deadlock", func(t *testing.T) {
		eng := sim.New()
		defer eng.Close()
		never := sim.NewCompletion(eng)
		err := runScenario(eng, Config{Workload: "stuck"}, func(pr *sim.Proc) error {
			pr.Await(never)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "stuck scenario deadlocked") {
			t.Fatalf("got %v, want the deadlock error", err)
		}
	})
}
