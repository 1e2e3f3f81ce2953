package serving

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Shared lease-acquisition path. Tier, churn, and scale lease their
// remote-memory working sets through the unified core.Plane surface via
// this one helper, so they share a single borrow shape and a single
// retry schedule and cannot drift apart. (Cells are gated byte-identical in BENCH_BASELINE.json; the retry
// schedule only engages on transient failures, which the swept
// configurations never hit.)

// borrowRetry is the scenarios' shared acquisition schedule: three
// attempts with a doubling backoff, enough to ride out a transiently
// drained donor population without materially delaying a genuinely
// failed cell.
var borrowRetry = core.RetryPolicy{Attempts: 3, Backoff: 200 * sim.Microsecond, Factor: 2}

// borrowWindows leases count remote-memory windows through pl as one
// all-or-nothing batch (partial grants are rolled back); mk shapes
// window i. The concrete memory leases come back in request order.
func borrowWindows(p *sim.Proc, pl core.Plane, count int, mk func(i int) core.Request) ([]*core.MemoryLease, error) {
	reqs := make([]core.Request, count)
	for i := range reqs {
		reqs[i] = mk(i).With(core.WithRetry(borrowRetry))
	}
	leases, err := pl.AcquireAll(p, reqs...)
	if err != nil {
		return nil, err
	}
	out := make([]*core.MemoryLease, count)
	for i, l := range leases {
		out[i] = l.(*core.MemoryLease)
	}
	return out, nil
}
