package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/sim"
)

// The engine-smoke experiment pins the event core's observable
// semantics the way serving-smoke pins the serving stack. Each trial
// drives a seeded workload through a regime the timing wheel must get
// right — same-instant FIFO bursts, all four wheel levels plus the
// beyond-horizon spill list, cancelable watchdogs, and the proc switching
// machinery — and reports exact counters plus an order checksum folded
// over the firing stream. Every value is a pure function of the seed
// and exactly float64-representable, so the cell is gated byte-exactly
// in BENCH_BASELINE.json: a scheduler change that reorders two events,
// fires a canceled one, or drifts the clock trips the gate.

// orderFNV folds the firing stream into a 32-bit FNV-1a checksum.
// 32 bits keep the value exactly representable in the float64 metric
// channel; any reordering of two folded tuples changes it.
type orderFNV uint32

func newOrderFNV() orderFNV { return 2166136261 }

func (h *orderFNV) fold(x uint64) {
	v := uint32(*h)
	for i := 0; i < 64; i += 8 {
		v ^= uint32(x>>i) & 0xff
		v *= 16777619
	}
	*h = orderFNV(v)
}

// engineDelay spreads delays across every wheel regime: same-instant
// ties, the four levels, and the > 2^32 ns spill list. It mirrors
// queueDelay in internal/sim's property tests, but lives on the
// experiment side so the gate does not depend on test internals.
func engineDelay(rng *sim.RNG) sim.Dur {
	switch rng.Intn(8) {
	case 0:
		return 0 // same-instant FIFO tie
	case 1, 2, 3:
		return sim.Dur(rng.Intn(1 << 12)) // levels 0–1 (hot path)
	case 4, 5:
		return sim.Dur(rng.Intn(1 << 20)) // level 2 cascades
	case 6:
		return sim.Dur(rng.Int63n(1 << 30)) // level 3 cascades
	default:
		return sim.Dur(1<<32 + rng.Int63n(1<<33)) // spill list
	}
}

// engineMixTrial exercises raw event scheduling: a population of
// self-rescheduling events spanning every wheel regime, plus a batch of
// cancelable watchdogs with every other one revoked before it can fire.
func engineMixTrial(seed uint64) (harness.Values, error) {
	eng := sim.New()
	rng := sim.NewRNG(seed)
	ord := newOrderFNV()

	// 256 recurring event chains; each fire folds (now, id) so a swap of
	// two same-instant events changes the checksum.
	const chains, budget = 256, 60_000
	scheduled := 0
	for id := uint64(0); id < chains; id++ {
		id := id
		var fn func()
		fn = func() {
			ord.fold(uint64(eng.Now()))
			ord.fold(id)
			if scheduled < budget {
				scheduled++
				eng.Schedule(engineDelay(rng), fn)
			}
		}
		scheduled++
		eng.Schedule(engineDelay(rng), fn)
	}

	// Watchdogs: half are canceled while still queued (tombstones the
	// wheel must skip), the rest fire and fold a distinct marker.
	var survived int
	handles := make([]sim.Handle, 0, 2048)
	for i := 0; i < 2048; i++ {
		handles = append(handles, eng.ScheduleCancelable(engineDelay(rng), func() {
			survived++
			ord.fold(^uint64(0))
			ord.fold(uint64(eng.Now()))
		}))
	}
	canceled := 0
	for i, h := range handles {
		if i%2 == 0 && eng.Cancel(h) {
			canceled++
		}
	}

	eng.Run()
	return harness.Values{
		"fired":     float64(eng.Fired()),
		"canceled":  float64(canceled),
		"survived":  float64(survived),
		"order_fnv": float64(ord),
		"final_ns":  float64(eng.Now()),
	}, nil
}

// engineBurstTrial hammers the FIFO-tie path: rounds of events packed
// onto a handful of shared instants, with some events spawning children
// at their own instant (which must fire after every event already
// queued there), interleaved with RunUntil boundaries that land exactly
// on burst timestamps.
func engineBurstTrial(seed uint64) (harness.Values, error) {
	eng := sim.New()
	rng := sim.NewRNG(seed)
	ord := newOrderFNV()

	var id uint64
	fire := func() func() {
		id++
		my := id
		return func() {
			ord.fold(uint64(eng.Now()))
			ord.fold(my)
		}
	}
	for round := 0; round < 400; round++ {
		// A burst: 4 shared instants, 32 events scattered across them.
		base := eng.Now().Add(sim.Dur(1 + rng.Intn(1<<16)))
		var instants [4]sim.Time
		for i := range instants {
			instants[i] = base.Add(sim.Dur(rng.Intn(4)))
		}
		for i := 0; i < 32; i++ {
			at := instants[rng.Intn(4)]
			fn := fire()
			if rng.Bool(0.25) {
				// Spawn a same-instant child mid-burst: strict FIFO
				// puts it behind everything already queued at `at`.
				child := fire()
				eng.At(at, func() {
					fn()
					eng.Schedule(0, child)
				})
			} else {
				eng.At(at, fn)
			}
		}
		// Stop exactly on a burst instant half the time: the bounded-pop
		// boundary must include events at the bound, exclude later ones.
		if rng.Bool(0.5) {
			eng.RunUntil(instants[rng.Intn(4)])
		} else {
			eng.Run()
		}
	}
	eng.Run()
	return harness.Values{
		"fired":     float64(eng.Fired()),
		"order_fnv": float64(ord),
		"final_ns":  float64(eng.Now()),
	}, nil
}

// engineProcsTrial runs the workload through the process layer instead
// of raw events: producers sleep random delays and push tokens through
// a bounded queue to consumers, all wakeups riding the engine's pooled
// unpark events.
func engineProcsTrial(seed uint64) (harness.Values, error) {
	eng := sim.New()
	defer eng.Close()
	rng := sim.NewRNG(seed)
	ord := newOrderFNV()

	const producers, perProducer = 16, 200
	q := sim.NewBoundedQueue[uint64](eng, 8)
	for i := 0; i < producers; i++ {
		id := uint64(i)
		delays := rng.Fork()
		eng.Go(fmt.Sprintf("prod%d", i), func(p *sim.Proc) {
			for k := 0; k < perProducer; k++ {
				p.Sleep(sim.Dur(delays.Intn(1 << 14)))
				q.Push(p, id<<32|uint64(k))
			}
		})
	}
	eng.Go("consumer", func(p *sim.Proc) {
		for n := 0; n < producers*perProducer; n++ {
			tok := q.Pop(p)
			ord.fold(uint64(eng.Now()))
			ord.fold(tok)
		}
	})

	eng.Run()
	if eng.LiveProcs() != 0 {
		return nil, fmt.Errorf("deadlock: %d procs still live", eng.LiveProcs())
	}
	return harness.Values{
		"fired":     float64(eng.Fired()),
		"order_fnv": float64(ord),
		"final_ns":  float64(eng.Now()),
	}, nil
}

// EngineSmokeCell is one assembled engine-smoke trial.
type EngineSmokeCell struct {
	ID       string
	Fired    uint64
	Canceled uint64
	OrderFNV uint32
	FinalNS  int64
}

// EngineSmokeResult is the assembled engine-smoke artifact.
type EngineSmokeResult struct {
	Cells []EngineSmokeCell
	Table Table
}

// String renders the per-trial table.
func (r *EngineSmokeResult) String() string { return r.Table.String() }

func engineSmokeSpec() harness.Spec {
	trials := []harness.Trial{
		{ID: "wheel-mix", Seed: 0x9e3779b97f4a7c15, Run: engineMixTrial},
		{ID: "fifo-burst", Seed: 0xc2b2ae3d27d4eb4f, Run: engineBurstTrial},
		{ID: "procs", Seed: 0x165667b19e3779f9, Run: engineProcsTrial},
	}
	return harness.Spec{
		Title:  "Engine — event-core determinism smoke (bench-regression CI gate)",
		Trials: trials,
		Assemble: func(r *harness.Result) (harness.Artifact, error) {
			res := &EngineSmokeResult{
				Table: Table{
					Title:   "Engine event-core smoke — exact firing-order checksums",
					Columns: []string{"trial", "fired", "canceled", "order fnv32", "final"},
				},
			}
			for _, t := range trials {
				c := EngineSmokeCell{
					ID:       t.ID,
					Fired:    uint64(r.Val(t.ID, "fired")),
					OrderFNV: uint32(r.Val(t.ID, "order_fnv")),
					FinalNS:  int64(r.Val(t.ID, "final_ns")),
				}
				if t.ID == "wheel-mix" {
					c.Canceled = uint64(r.Val(t.ID, "canceled"))
				}
				res.Cells = append(res.Cells, c)
				res.Table.AddRow(c.ID,
					fmt.Sprintf("%d", c.Fired),
					fmt.Sprintf("%d", c.Canceled),
					fmt.Sprintf("%08x", c.OrderFNV),
					sim.Time(c.FinalNS).Sub(sim.Time(0)).String())
			}
			return res, nil
		},
	}
}

// EngineSmoke runs the event-core determinism cell.
func EngineSmoke() *EngineSmokeResult {
	return runSpec("engine-smoke", engineSmokeSpec()).(*EngineSmokeResult)
}
