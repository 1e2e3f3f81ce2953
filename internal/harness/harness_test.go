package harness

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// synthSpec builds n trials whose values derive only from their seeds,
// with a little real work so parallel schedules actually interleave.
func synthSpec(n int) Spec {
	var trials []Trial
	for i := 0; i < n; i++ {
		trials = append(trials, Trial{
			ID: fmt.Sprintf("cell/%d", i), Seed: uint64(1000 + i),
			Run: func(seed uint64) (Values, error) {
				rng := sim.NewRNG(seed)
				sum := 0.0
				for j := 0; j < 10000; j++ {
					sum += rng.Float64()
				}
				return Values{"sum": sum, "first": float64(sim.NewRNG(seed).Uint64() % 1000)}, nil
			},
		})
	}
	return Spec{
		Title:  "synthetic",
		Trials: trials,
		Assemble: func(r *Result) (Artifact, error) {
			var b strings.Builder
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, "%d:%.6f\n", i, r.Val(fmt.Sprintf("cell/%d", i), "sum"))
			}
			return stringArtifact(b.String()), nil
		},
	}
}

type stringArtifact string

func (s stringArtifact) String() string { return string(s) }

// Same seeds must yield identical values and renderings for every
// worker-pool size.
func TestDeterministicAcrossParallel(t *testing.T) {
	spec := synthSpec(12)
	var artifacts []string
	var values [][]Values
	for _, parallel := range []int{1, 2, 4, 16} {
		art, res, err := Run("synth", spec, Options{Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		artifacts = append(artifacts, art.String())
		var vs []Values
		for _, tr := range res.Trials {
			vs = append(vs, tr.Values)
		}
		values = append(values, vs)
	}
	for i := 1; i < len(artifacts); i++ {
		if artifacts[i] != artifacts[0] {
			t.Fatalf("artifact differs between pool sizes:\n%s\nvs\n%s", artifacts[0], artifacts[i])
		}
		if !reflect.DeepEqual(values[i], values[0]) {
			t.Fatalf("trial values differ between pool sizes")
		}
	}
}

// A failing trial's error must propagate out of Run, naming the trial,
// while the remaining trials still execute.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("device exploded")
	ran := int32(0)
	spec := Spec{
		Trials: []Trial{
			{ID: "ok/1", Seed: 1, Run: func(uint64) (Values, error) {
				atomic.AddInt32(&ran, 1)
				return Values{"v": 1}, nil
			}},
			{ID: "bad", Seed: 2, Run: func(uint64) (Values, error) { return nil, boom }},
			{ID: "ok/2", Seed: 3, Run: func(uint64) (Values, error) {
				atomic.AddInt32(&ran, 1)
				return Values{"v": 2}, nil
			}},
		},
		Assemble: func(r *Result) (Artifact, error) { return stringArtifact("x"), nil },
	}
	_, res, err := Run("errs", spec, Options{Parallel: 2})
	if err == nil {
		t.Fatal("want error from failing trial")
	}
	if !strings.Contains(err.Error(), "errs/bad") || !strings.Contains(err.Error(), "device exploded") {
		t.Fatalf("error should name the trial and cause: %v", err)
	}
	if got := atomic.LoadInt32(&ran); got != 2 {
		t.Fatalf("healthy trials should still run, got %d of 2", got)
	}
	if res.Trials[0].Values["v"] != 1 || res.Trials[2].Values["v"] != 2 {
		t.Fatalf("healthy trial values lost: %+v", res.Trials)
	}
}

// A panicking trial must not take down the pool; it becomes that
// trial's error, also when the panic is raised inside a simulated
// process.
func TestPanicRecovery(t *testing.T) {
	spec := Spec{
		Trials: []Trial{
			{ID: "panics", Seed: 1, Run: func(uint64) (Values, error) { panic("kaboom") }},
			{ID: "fine", Seed: 2, Run: func(uint64) (Values, error) { return Values{"v": 9}, nil }},
			{ID: "proc-panics", Seed: 3, Run: func(uint64) (Values, error) {
				e := sim.New()
				defer e.Close()
				e.Go("bad", func(p *sim.Proc) {
					p.Sleep(1)
					panic("boom")
				})
				e.Run()
				return Values{"v": 1}, nil
			}},
		},
		Assemble: func(r *Result) (Artifact, error) { return stringArtifact("x"), nil },
	}
	_, res, err := Run("pan", spec, Options{Parallel: 2})
	if err == nil || !strings.Contains(err.Error(), "panic: kaboom") {
		t.Fatalf("want recovered panic in error, got %v", err)
	}
	if res.Trials[1].Values["v"] != 9 {
		t.Fatalf("sibling trial should have completed: %+v", res.Trials[1])
	}
	if got := res.Trials[2]; got.Error != "panic: boom" || got.Values != nil {
		t.Fatalf("a panic inside a sim.Proc should be its trial's error: %+v", got)
	}
}

// The pool must never run more trials at once than Parallel allows.
func TestPoolBounded(t *testing.T) {
	for _, limit := range []int{1, 3} {
		var cur, max int32
		var mu sync.Mutex
		var trials []Trial
		for i := 0; i < 9; i++ {
			trials = append(trials, Trial{
				ID: fmt.Sprintf("t/%d", i), Seed: uint64(i),
				Run: func(uint64) (Values, error) {
					n := atomic.AddInt32(&cur, 1)
					mu.Lock()
					if n > max {
						max = n
					}
					mu.Unlock()
					time.Sleep(5 * time.Millisecond)
					atomic.AddInt32(&cur, -1)
					return Values{}, nil
				},
			})
		}
		res := Execute("bound", Spec{Trials: trials}, Options{Parallel: limit})
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		if int(max) > limit {
			t.Fatalf("observed %d concurrent trials with -parallel %d", max, limit)
		}
	}
}

// Execution order may vary but reported results stay in declaration
// order with timing metadata filled in.
func TestResultOrderAndTiming(t *testing.T) {
	spec := synthSpec(6)
	res := Execute("order", spec, Options{Parallel: 3})
	for i, tr := range res.Trials {
		if want := fmt.Sprintf("cell/%d", i); tr.Trial != want {
			t.Fatalf("result %d is %q, want %q", i, tr.Trial, want)
		}
		if tr.WallMS < 0 {
			t.Fatalf("trial %s missing wall-clock metadata", tr.Trial)
		}
		if tr.Seed != uint64(1000+i) {
			t.Fatalf("trial %s lost its seed: %d", tr.Trial, tr.Seed)
		}
	}
	if res.WallMS <= 0 {
		t.Fatal("spec wall-clock not recorded")
	}
}

// Duplicate trial ids would silently shadow results during assembly;
// Execute must refuse them up front.
func TestDuplicateTrialIDPanics(t *testing.T) {
	spec := Spec{Trials: []Trial{
		{ID: "same", Seed: 1, Run: func(uint64) (Values, error) { return Values{}, nil }},
		{ID: "same", Seed: 2, Run: func(uint64) (Values, error) { return Values{}, nil }},
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate trial id should panic")
		}
	}()
	Execute("dup", spec, Options{Parallel: 1})
}

func TestRegistry(t *testing.T) {
	Register("zz-test-spec", synthSpec(1))
	if _, ok := Lookup("zz-test-spec"); !ok {
		t.Fatal("registered spec not found")
	}
	ids := IDs()
	if ids[len(ids)-1] != "zz-test-spec" {
		t.Fatalf("registration order not preserved: %v", ids)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate registration should panic")
			}
		}()
		Register("zz-test-spec", synthSpec(1))
	}()
	if _, _, err := RunID("zz-no-such-spec", Options{}); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestReport(t *testing.T) {
	res := Execute("rep", synthSpec(3), Options{Parallel: 2})
	rep := NewReport(2, res.WallMS, []*Result{res})
	if rep.Parallel != 2 || len(rep.Trials) != 3 || len(rep.Specs) != 1 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	path := t.TempDir() + "/bench.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}
