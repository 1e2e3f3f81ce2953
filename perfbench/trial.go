package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// phase names a set-up phase; their host times add up to setup_s.
type phase int

const (
	phaseBuild     phase = iota // cluster construction
	phaseWarm                   // RRT warm-up
	phaseLease                  // working-set leases
	phaseCalibrate              // closed-loop service-time calibration
	numPhases
)

var phaseNames = [numPhases]string{"build", "warm", "lease", "calibrate"}

// cpuProfileHz is the CPU profile's sampling rate.
const cpuProfileHz = 1000

// passOpts selects what a pass records besides the end-to-end numbers.
type passOpts struct {
	cpu    bool // CPU-profile every serve phase
	allocs bool // record every allocation of every serve phase
	trace  bool // record virtual spans and layer counters
}

// trial is one rig's life: set-up phases timed on the host clock, one
// measured serve phase, teardown, and the output checks. Workloads fill
// it through setupPhase, setupProc and measure.
type trial struct {
	seed uint64
	opts passOpts

	setup      [numPhases]time.Duration
	serve      time.Duration
	speed      float64 // refNominal over the reference kernel's time around the serve phase
	maxRSS     float64 // the process's peak resident set during the trial, MiB
	mallocs    uint64
	allocBytes uint64
	cpu        []byte // CPU profile of the serve phase (opts.cpu)

	tally             // the measured requests
	failures []string // failed output checks

	leases leaseBook
	spans  []span

	// Layer counters (opts.trace): at serve start, at serve end, and
	// after teardown.
	atServe, afterServe, atEnd counters
	crashes                    int
}

// hostSeconds converts a host duration measured in this trial to
// seconds at the reference speed. A machine shared with other tenants
// speeds up and slows down by tens of percent within seconds; the
// reference kernel run just before and after the serve phase slows down
// with it.
func (t *trial) hostSeconds(d time.Duration) float64 { return d.Seconds() * t.speed }

// failf records a failed output check.
func (t *trial) failf(format string, args ...any) {
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// setupPhase charges fn's host time to set-up phase ph.
func (t *trial) setupPhase(ph phase, fn func()) {
	start := time.Now()
	fn()
	t.setup[ph] += time.Since(start)
}

// setupProc runs fn as a process on n, as set-up phase ph.
func (t *trial) setupProc(ph phase, n *node.Node, fn func(p *sim.Proc) error) error {
	var err error
	t.setupPhase(ph, func() { err = runProc(n, fn) })
	if err != nil {
		return fmt.Errorf("%s: %w", phaseNames[ph], err)
	}
	return nil
}

// runProc runs fn as a process on n and steps the engine until it
// returns.
func runProc(n *node.Node, fn func(p *sim.Proc) error) error {
	var err error
	done := n.Run("bench", func(p *sim.Proc) { err = fn(p) })
	if derr := drive(n.Eng, done, driveLimit); derr != nil {
		return derr
	}
	return err
}

// driveLimit bounds every engine run of set-up and teardown in virtual
// time. Each takes well under a virtual second; one that runs past the
// limit waits on a proc that is parked for good.
const driveLimit = 10 * sim.Second

// drive steps eng until done completes. Agents and recovery loops keep
// the queue alive forever, so a drained queue means a deadlock, and a
// run past limit of virtual time (0: no limit) a proc that never
// returns.
func drive(eng *sim.Engine, done *sim.Completion, limit sim.Dur) error {
	expired := false
	if limit > 0 {
		h := eng.ScheduleCancelable(limit, func() { expired = true })
		defer eng.Cancel(h)
	}
	for !done.Done() && !expired && eng.Step() {
	}
	switch {
	case done.Done():
		return nil
	case expired:
		return fmt.Errorf("not done after %v of virtual time, with %d live procs", limit, eng.LiveProcs())
	}
	return fmt.Errorf("simulation deadlocked with %d live procs", eng.LiveProcs())
}

// request is one unit of offered load. Its inputs are drawn at its due
// instant from the trial's seed streams, so they do not depend on which
// worker serves it.
type request struct {
	id     int
	due    sim.Time
	key    int
	off    uint64
	tenant uint64
	class  tenancy.Class
	last   bool // tells a worker to exit
}

// load is a trial's request stream. With arrivals it is an open loop: a
// generator proc sleeps to each due instant and stamps the request
// there, so it is never late. Without, it is a closed loop that keeps
// one request per worker in flight, which is how lease-crowd calibrates
// its capacity. Requests wait in one FIFO for the first free worker.
type load struct {
	requests int
	workers  int
	arrivals *arrivals
	deadline sim.Dur
	// calibrating marks a loop whose requests are not the measured ones:
	// they get negative ids, so no span is recorded for them.
	calibrating bool
	// draw fills a request's inputs at its due instant.
	draw func(r *request)
	// serve runs one request on a worker; an error means it was refused.
	serve func(p *sim.Proc, r *request) error
}

// tally is what one run of a load observed.
type tally struct {
	offered, completed, refused int
	good                        int       // completions within the deadline
	lat                         []sim.Dur // virtual latency of each completed request
	start, last                 sim.Time  // loop start and last completion
}

// window is the virtual span from the loop's start to its last
// completion.
func (tl *tally) window() sim.Dur { return tl.last.Sub(tl.start) }

// lostAfter is how many SLO deadlines an open loop waits past its last
// due instant before it gives up on the requests still unresolved.
const lostAfter = 4

// start launches l on eng, tallying into tl, and returns a completion
// that fires once every request has resolved and the workers have
// exited or, on an open loop, once the last due instant is lostAfter
// deadlines past. A request unresolved then is lost; the proc that
// holds it stays parked until the engine closes.
func (l load) start(eng *sim.Engine, t *trial, tl *tally) *sim.Completion {
	q := sim.NewQueue[request](eng)
	workers := sim.NewGroup(eng)
	over := sim.NewCompletion(eng)
	sent, resolved := 0, 0
	tl.start = eng.Now()
	send := func(p *sim.Proc) {
		r := request{id: sent, due: p.Now()}
		if l.calibrating {
			r.id = -1 - sent
		}
		sent++
		l.draw(&r)
		tl.offered++
		q.Push(p, r)
	}
	if l.arrivals != nil {
		eng.Go("bench-gen", func(p *sim.Proc) {
			for sent < l.requests {
				p.Sleep(l.arrivals.next())
				send(p)
			}
			p.Sleep(lostAfter * l.deadline)
			over.Complete()
		})
	}
	for w := 0; w < l.workers; w++ {
		workers.Add(1)
		eng.Go("bench-worker", func(p *sim.Proc) {
			defer workers.Done()
			if l.arrivals == nil && sent < l.requests {
				send(p)
			}
			for {
				r := q.Pop(p)
				if r.last {
					return
				}
				err := l.serve(p, &r)
				now := p.Now()
				t.span(r.id, spanRequest, r.due, now)
				if err != nil {
					tl.refused++
				} else {
					tl.completed++
					d := now.Sub(r.due)
					tl.lat = append(tl.lat, d)
					if d <= l.deadline {
						tl.good++
					}
					tl.last = max(tl.last, now)
				}
				if resolved++; resolved == l.requests {
					for range l.workers {
						q.Push(p, request{last: true})
					}
				} else if l.arrivals == nil && sent < l.requests {
					send(p)
				}
			}
		})
	}
	eng.Go("bench-join", func(p *sim.Proc) {
		workers.Wait(p)
		over.Complete()
	})
	return over
}

// measure runs l on eng as the trial's serve phase. Host time,
// allocation counts and, per the pass options, the CPU profile, the
// allocation profile and the layer counters bracket exactly the engine
// steps that serve the requests. read snapshots the rig's layer
// counters.
func (t *trial) measure(eng *sim.Engine, l load, read func() counters) error {
	runtime.GC()
	if t.opts.trace {
		t.atServe = read()
	}
	refBefore := refKernel()
	runtime.GC()
	var prof bytes.Buffer
	if t.opts.cpu {
		// Sample at ten times pprof's fixed 100 Hz so that small layers
		// collect samples. Setting the rate first is the runtime's only
		// knob for it; pprof's own attempt to reset it then prints a
		// harmless warning to stderr.
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if t.opts.allocs {
		runtime.MemProfileRate = 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()

	err := drive(eng, l.start(eng, t, &t.tally), 0)

	t.serve = time.Since(began)
	runtime.ReadMemStats(&after)
	if t.opts.allocs {
		runtime.MemProfileRate = 0
	}
	if t.opts.cpu {
		pprof.StopCPUProfile()
		t.cpu = prof.Bytes()
	}
	// Both kernel runs start from a collected heap, so the garbage and
	// heap size of the serve phase cannot slow the second one.
	runtime.GC()
	t.speed = float64(2*refNominal) / float64(refBefore+refKernel())
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if t.opts.trace {
		t.afterServe = read()
	}
	t.mallocs = after.Mallocs - before.Mallocs
	t.allocBytes = after.TotalAlloc - before.TotalAlloc
	if lost := t.offered - t.completed - t.refused; lost != 0 {
		t.failf("%d of %d requests lost: unresolved %v after the last due instant", lost, t.offered, lostAfter*l.deadline)
	}
	return nil
}

// spanName indexes the virtual-time spans a trial records. The request
// span is the root; every other span is a child of the request whose id
// it carries.
type spanName uint8

const (
	spanRequest spanName = iota
	spanMemRead
	spanMemThink
	spanAcquire
	spanFill
	spanThink
	spanRelease
	spanAccelRun
	spanNICSend
	numSpans
)

var spanNames = [numSpans]string{
	"bench.request", "memsys.read", "memsys.think", "core.acquire",
	"transport.fill", "bench.think", "core.release", "accel.run",
	"vnic.send",
}

// span is one recorded virtual-time interval of request req.
type span struct {
	req        int32
	name       spanName
	start, end sim.Time
}

// span records a virtual-time span when the pass traces. Calibration
// requests carry a negative id and are not recorded.
func (t *trial) span(req int, name spanName, start, end sim.Time) {
	if t.opts.trace && req >= 0 {
		t.spans = append(t.spans, span{req: int32(req), name: name, start: start, end: end})
	}
}

// timeSpan runs fn on p and records it as span name of request req.
func (t *trial) timeSpan(p *sim.Proc, req int, name spanName, fn func()) {
	start := p.Now()
	fn()
	t.span(req, name, start, p.Now())
}

// leaseBook follows the plane's lease-lifecycle stream: how many leases
// reached each state, and which granted leases never ended.
type leaseBook struct {
	granted, released, failedOver, acquireFailed int
	ended                                        map[uint64]bool
}

// watch subscribes the trial's lease book to pl and returns the cancel.
func (t *trial) watch(pl core.Plane) func() { return pl.Observe(t.leases.note) }

// note books one lifecycle event. A failover re-places a lease under the
// same trace id, and its holder still has to release it, so it does not
// end the lease.
func (b *leaseBook) note(ev core.Event) {
	if b.ended == nil {
		b.ended = make(map[uint64]bool)
	}
	switch ev.Type {
	case core.LeaseGranted:
		b.granted++
		if _, seen := b.ended[ev.Trace]; !seen {
			b.ended[ev.Trace] = false
		}
	case core.LeaseReleased:
		b.released++
		b.ended[ev.Trace] = true
	case core.LeaseFailedOver:
		b.failedOver++
	case core.LeaseRevoked, core.LeasePreempted:
		b.ended[ev.Trace] = true
	case core.LeaseAcquireFailed:
		b.acquireFailed++
	}
}

// checkLeases fails the trial for every granted lease that was never
// released, revoked or preempted.
func (t *trial) checkLeases() {
	open := 0
	for _, ended := range t.leases.ended {
		if !ended {
			open++
		}
	}
	if open > 0 {
		t.failf("%d of %d granted leases still open after teardown", open, t.leases.granted)
	}
}

// counters is a snapshot of the simulator's own work counters, read
// through public surfaces only. The monitor's scoreboard arrives through
// the /state snapshot (obs.SnapshotFlat / obs.SnapshotHier).
type counters struct {
	events                           uint64
	link                             fabric.LinkStats
	crmaFills, crmaReplayed, rdmaOps int64
	memReads, cacheHits, cacheMisses int64
	mn                               map[string]int64
}

// readCounters sums the per-node counters of a rig.
func readCounters(eng *sim.Engine, net *fabric.Network, nodes []*node.Node, mn map[string]int64) counters {
	c := counters{events: eng.Fired(), link: net.TotalLinkStats(), mn: mn}
	for _, n := range nodes {
		c.crmaFills += n.EP.CRMA.Stats.Fills
		c.crmaReplayed += n.EP.CRMA.Stats.Replayed
		c.rdmaOps += n.EP.RDMA.Stats.Reads + n.EP.RDMA.Stats.Writes
		c.memReads += n.Mem.Stats.Reads
		c.cacheHits += n.Mem.Cache.Stats.Hits
		c.cacheMisses += n.Mem.Cache.Stats.Misses
	}
	return c
}

// settle waits until the goroutines of closed engines have unwound
// (Engine.Close does not wait for its parked procs), so no earlier
// trial's teardown runs inside the next timed window, then collects
// garbage.
func settle(baseline int) error {
	deadline := time.Now().Add(30 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines alive after teardown, want %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
	}
	runtime.GC()
	return nil
}
