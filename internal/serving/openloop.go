package serving

import (
	"fmt"

	"repro/internal/sim"
)

// Every scenario measures through this file. A scenario builds its rig,
// calibrates closed-loop (calibrate), and hands the measured phase to
// openLoop: a request maker and a serve body are all it supplies.
// openLoop owns the request queue(s), the worker pool, the seeded
// arrival generator and its drain, the run's one latency histogram and
// the Observe hook; runScenario owns the engine step loop, the Throttle
// hook and the deadlock check around the whole scenario.

// appWorkers is the app-server concurrency of tier, scale, churn and
// inference; KV runs one dispatcher per data server and tenancy sizes
// its own pool.
const appWorkers = 2

// calibrate runs op n times closed-loop and returns the mean service
// time in ns.
func calibrate(pr *sim.Proc, n int, op func(j int)) float64 {
	t0 := pr.Now()
	for j := 0; j < n; j++ {
		op(j)
	}
	return float64(pr.Now().Sub(t0)) / float64(n)
}

// offeredRPS is the open-loop arrival rate: util of the capacity that
// workers servers of serviceNS mean service time sustain.
func offeredRPS(util float64, workers int, serviceNS float64) float64 {
	return util * float64(workers) / serviceNS * 1e9
}

// openLoop is one measured open-loop phase over requests of type R.
type openLoop[R any] struct {
	// cfg supplies the arrival process, the seed that drives it, the
	// request count and the Observe hook.
	cfg     Config
	workers int
	// ownQueue gives worker w its own queue, the one next names;
	// otherwise every worker pops one shared queue.
	ownQueue bool
	rps      float64
	// next draws one request after each arrival sleep, and the queue it
	// joins (always 0 without ownQueue).
	next func() (req R, queue int)
	// serve runs req on worker w. False is an admission rejection, which
	// the phase counts and records nothing else of.
	serve func(wp *sim.Proc, w int, req R) bool
	// done, when set, sees each completion before the phase counts it.
	done func(ph *phase, req R, now sim.Time, d sim.Dur)
	// exit, when set, runs as worker w stops.
	exit func(wp *sim.Proc, w int)
}

// phase is one measured phase's outcome.
type phase struct {
	// lat holds every completion's arrival-to-response latency.
	lat                 *sim.LatencyHist
	completed, rejected int
	start, lastDone     sim.Time
	maxQueue            int
}

// window is the measured window in seconds, from the generator's start
// to the last completion.
func (ph *phase) window() float64 { return ph.lastDone.Sub(ph.start).Seconds() }

// queued is one request between the generator and a worker; close is a
// worker's stop sentinel.
type queued[R any] struct {
	arrived sim.Time
	req     R
	close   bool
}

// run spawns the workers in index order, offers the requests, sends one
// stop sentinel per worker, and returns once every worker has stopped.
// It reports an error if a request went unaccounted.
func (o openLoop[R]) run(pr *sim.Proc) (*phase, error) {
	queues := make([]*sim.Queue[queued[R]], 1)
	if o.ownQueue {
		queues = make([]*sim.Queue[queued[R]], o.workers)
	}
	for i := range queues {
		queues[i] = sim.NewQueue[queued[R]](pr.Eng)
	}
	ph := &phase{lat: &sim.LatencyHist{}}
	grp := sim.NewGroup(pr.Eng)
	for w := 0; w < o.workers; w++ {
		q := queues[w%len(queues)]
		grp.Add(1)
		pr.Eng.Go("worker", func(wp *sim.Proc) {
			defer grp.Done()
			for {
				item := q.Pop(wp)
				if item.close {
					if o.exit != nil {
						o.exit(wp, w)
					}
					return
				}
				if !o.serve(wp, w, item.req) {
					ph.rejected++
					continue
				}
				now := wp.Now()
				d := now.Sub(item.arrived)
				if o.done != nil {
					o.done(ph, item.req, now, d)
				}
				if o.cfg.Observe != nil {
					o.cfg.Observe(d)
				}
				ph.lat.AddDur(d)
				if now > ph.lastDone {
					ph.lastDone = now
				}
				ph.completed++
			}
		})
	}

	arr := newSampler(o.cfg.Arrivals, o.rps, sim.NewRNG(o.cfg.Seed))
	ph.start = pr.Now()
	for r := 0; r < o.cfg.Requests; r++ {
		pr.Sleep(arr.Next())
		req, qi := o.next()
		queues[qi].Push(pr, queued[R]{arrived: pr.Now(), req: req})
	}
	for w := 0; w < o.workers; w++ {
		queues[w%len(queues)].Push(pr, queued[R]{close: true})
	}
	grp.Wait(pr)

	for _, q := range queues {
		ph.maxQueue = max(ph.maxQueue, q.MaxDepth())
	}
	if ph.completed+ph.rejected != o.cfg.Requests {
		return ph, fmt.Errorf("serving: lost requests: %d completed + %d rejected of %d",
			ph.completed, ph.rejected, o.cfg.Requests)
	}
	return ph, nil
}

// runScenario runs body as cfg's scenario proc and steps eng until body
// returns, calling cfg.Throttle (when set) between steps, outside
// virtual time. Agents, recovery sweeps, tenants and pending chaos
// actions keep the event queue alive forever, so the loop stops at the
// body's end; a queue that drains first leaves the body parked for good.
func runScenario(eng *sim.Engine, cfg Config, body func(pr *sim.Proc) error) error {
	var err error
	done := eng.Go("serving-"+string(cfg.Workload), func(pr *sim.Proc) { err = body(pr) })
	for !done.Done() && eng.Step() {
		if cfg.Throttle != nil {
			cfg.Throttle()
		}
	}
	if err != nil {
		return err
	}
	if !done.Done() {
		return fmt.Errorf("serving: %s scenario deadlocked (%d live procs)", cfg.Workload, eng.LiveProcs())
	}
	return nil
}
