package core

import (
	"runtime"
	"testing"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// leaseLoop runs op n times in one proc on node 1 of c, stepping the
// engine (heartbeats and all) until the proc is done, and fails t on
// the first error op reports.
func leaseLoop(tb testing.TB, c *Cluster, n int, op func(p *sim.Proc) error) {
	tb.Helper()
	var err error
	done := c.Node(1).Run("lease-loop", func(p *sim.Proc) {
		for i := 0; i < n && err == nil; i++ {
			err = op(p)
		}
	})
	for !done.Done() && c.Eng.Step() {
	}
	if err != nil {
		tb.Fatal(err)
	}
	if !done.Done() {
		tb.Fatal("lease loop parked")
	}
}

// TestLeaseSteadyStateAllocs gates what a warm memory lease's life
// allocates on a flat cluster. An Acquire and its Release make one
// object, the MemoryLease handle, which holds its region, backend and
// RAMT entry. A request built from options makes none, and neither does
// an attempt's MN call: its record comes from the plane's list, the
// donor walk's candidate slice, region records and RAT row from the
// MN's, and the donor's export entry from its CRMA channel's. A call
// made with a timeout makes none either: its revoked watchdog event
// goes back to the engine's pool at once.
func TestLeaseSteadyStateAllocs(t *testing.T) {
	c := NewCluster(Config{StartAgents: true})
	defer c.Close()
	c.RunFor(sim.Second) // populate the RRT
	app := c.Node(1)
	const size = 1 << 20
	retry := RetryPolicy{Attempts: 3, Backoff: sim.Microsecond}
	var free monitor.FreeReq
	rows := []struct {
		name string
		want float64
		op   func(p *sim.Proc) error
	}{
		{"acquire-release", 1, func(p *sim.Proc) error {
			l, err := c.Acquire(p, NewRequest(Memory, app, size, WithTenant(7, tenancy.Standard), WithRetry(retry)))
			if err != nil {
				return err
			}
			l.Release(p)
			return nil
		}},
		{"mn-call", 0, func(p *sim.Proc) error {
			r := NewRequest(Memory, app, size, WithTenant(7, tenancy.Standard))
			resp, err := c.grantVia(p, r, c.MN.Node(), monitor.Memory, app.NextHotplugWindow(size))
			if err != nil {
				return err
			}
			free.AllocID = resp.AllocID
			monitor.Free(p, app.EP, c.MN.Node(), &free)
			return nil
		}},
		{"mn-call-timeout", 0, func(p *sim.Proc) error {
			r := NewRequest(Memory, app, size, WithTenant(7, tenancy.Standard), WithTimeout(sim.Second))
			resp, err := c.grantVia(p, r, c.MN.Node(), monitor.Memory, app.NextHotplugWindow(size))
			if err != nil {
				return err
			}
			free.AllocID = resp.AllocID
			monitor.Free(p, app.EP, c.MN.Node(), &free)
			return nil
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			leaseLoop(t, c, 200, row.op)
			const n = 1000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			leaseLoop(t, c, n, row.op)
			runtime.ReadMemStats(&after)
			// The loop's proc and its Completion are two objects; Mallocs
			// counts the whole process, so allow one stray allocation
			// elsewhere per hundred operations.
			if got := float64(after.Mallocs-before.Mallocs-2) / n; got > row.want+0.01 {
				t.Fatalf("a warm %s allocates %.3f objects, want <= %.0f", row.name, got, row.want)
			}
		})
	}
	t.Run("request", func(t *testing.T) {
		got := testing.AllocsPerRun(1000, func() {
			r := NewRequest(Memory, app, size, WithTenant(7, tenancy.Latency), WithRetry(retry),
				WithTimeout(sim.Millisecond), WithScope(monitor.ScopeAny), WithLatencySensitive())
			if r.tags.Class != tenancy.Latency {
				t.Fatal("options not applied")
			}
		})
		if got != 0 {
			t.Fatalf("building a request allocates %.2f objects, want 0", got)
		}
	})
}

// BenchmarkAcquire measures one warm memory Acquire and its Release on
// a flat 8-node cluster, from node 1: the request, the grant call to the
// MN with its donor walk, hot-remove and export, the recipient's mount
// and hot-plug, and the release's free and hot-return. Heartbeats run
// alongside at their default period.
func BenchmarkAcquire(b *testing.B) {
	c := NewCluster(Config{StartAgents: true})
	defer c.Close()
	c.RunFor(sim.Second)
	app := c.Node(1)
	op := func(p *sim.Proc) error {
		l, err := c.Acquire(p, NewRequest(Memory, app, 1<<20))
		if err != nil {
			return err
		}
		l.Release(p)
		return nil
	}
	leaseLoop(b, c, 100, op)
	b.ReportAllocs()
	b.ResetTimer()
	leaseLoop(b, c, b.N, op)
}
