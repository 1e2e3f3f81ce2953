package sim

import (
	"fmt"
	"testing"
)

// benchDelay draws one inter-event delay from the mix a serving-scale run
// produces: mostly sub-10µs transport hops, a tail of millisecond-scale
// protocol timers, and rare multi-second chaos/MTTF timers. With level 0
// spanning 262 µs in 64-ns slots, the hops land in level 0, where a hop
// often goes ahead of later events already in its slot; the sub-ms
// timers land in levels 0 and 1, the sweeps in level 1, and the 5–10 s
// timers in level 2. None reaches the 73-min horizon. The mix stays
// fixed: CI's events/sec gate compares it against the base commit.
func benchDelay(rng *RNG) Dur {
	switch x := rng.Intn(1000); {
	case x < 900:
		return Dur(rng.Intn(10_000)) // < 10µs: packet hops, device ops
	case x < 990:
		return Dur(rng.Intn(1_000_000)) // < 1ms: timeouts, heartbeats
	case x < 999:
		return Dur(rng.Intn(100_000_000)) // < 100ms: sweeps, recovery
	default:
		return Dur(5_000_000_000 + rng.Int63n(5_000_000_000)) // 5-10s: MTTF
	}
}

// BenchmarkEngineThroughput measures sustained Schedule+Step throughput
// with a steady population of self-rescheduling events, sized to mimic
// 8/64/256 simulated nodes with ~8 in-flight events each. Every fired
// event schedules its successor, so the population is constant and each
// benchmark op is exactly one schedule plus one dispatch. Reported
// events/sec is the engine-core ceiling for the serving scenarios;
// allocs/op is the pooling gate (steady state must be zero-alloc).
func BenchmarkEngineThroughput(b *testing.B) {
	for _, nodes := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("n%d", nodes), func(b *testing.B) {
			e := New()
			rng := NewRNG(1)
			var fn func()
			fn = func() { e.Schedule(benchDelay(rng), fn) }
			for i := 0; i < nodes*8; i++ {
				e.Schedule(benchDelay(rng), fn)
			}
			// Warm the scheduler (pool, buckets) before measuring.
			for i := 0; i < 100_000; i++ {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkProcSwitch measures one Sleep round trip of a long-lived
// proc: the engine dispatches its wakeup, switches into the proc, and the
// proc schedules its next wakeup and switches back. Steady state must
// not allocate.
func BenchmarkProcSwitch(b *testing.B) {
	e := New()
	defer e.Close()
	e.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	e.Step() // start the proc; from here each Step is one round trip
	b.ReportAllocs()
	for b.Loop() {
		e.Step()
	}
}

// BenchmarkProcSpawn measures a short-lived proc on a warm engine: Go,
// one Sleep, and finish.
func BenchmarkProcSpawn(b *testing.B) {
	benchSpawn(b, func(e *Engine, body func(p *Proc)) { e.Go("spawn", body) })
}

// BenchmarkProcSpawnDetached is BenchmarkProcSpawn started with Spawn,
// which allocates no Completion. An RPC endpoint pays this once per
// call to a blocking handler.
func BenchmarkProcSpawnDetached(b *testing.B) {
	benchSpawn(b, func(e *Engine, body func(p *Proc)) { e.Spawn("spawn", body) })
}

func benchSpawn(b *testing.B, start func(e *Engine, body func(p *Proc))) {
	e := New()
	defer e.Close()
	body := func(p *Proc) { p.Sleep(1) }
	e.Go("warm", body)
	e.Run()
	b.ReportAllocs()
	for b.Loop() {
		start(e, body)
		e.Run()
	}
}
