// Package harness decomposes experiments into independent, explicitly
// seeded trials and executes them on a bounded worker pool. A trial is
// one configuration × workload cell of an experiment (one bar of a
// figure); because every trial builds its own simulator from its own
// sim.RNG seed, trials are pure functions of their seed and may run in
// any order on any number of workers without changing a single reported
// value. Experiments register a Spec (trial list + assembly function)
// under a stable id; cmd/venice-bench and the experiments package both
// execute through the same pool.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Values is a trial's measured payload: named scalar metrics. Durations
// are reported in nanoseconds of virtual time (sim.Dur is an int64
// nanosecond count, exactly representable in a float64 for any
// realistic simulation length).
type Values map[string]float64

// Trial is one independent unit of an experiment. Run must derive every
// stochastic choice from seed (directly or through fixed per-workload
// streams) so that the same seed always yields the same Values.
type Trial struct {
	ID   string
	Seed uint64
	Run  func(seed uint64) (Values, error)
}

// Artifact is an assembled experiment result renderable for terminal
// output; the concrete type carries the experiment's typed series.
type Artifact interface{ String() string }

// Spec is a registrable experiment: a trial list plus the assembly that
// folds per-trial values back into the experiment's result type. Trials
// may be empty for purely tabular artifacts (Table 1, the cost table).
type Spec struct {
	Title    string
	Trials   []Trial
	Assemble func(r *Result) (Artifact, error)
}

// TrialResult is one executed trial with its timing metadata.
type TrialResult struct {
	Spec   string  `json:"spec,omitempty"`
	Trial  string  `json:"trial"`
	Seed   uint64  `json:"seed"`
	Values Values  `json:"values,omitempty"`
	Error  string  `json:"error,omitempty"`
	WallMS float64 `json:"wall_ms"`
}

// Result holds a spec's executed trials, in declaration order, plus the
// spec's total wall-clock time.
type Result struct {
	Spec   string
	Trials []TrialResult
	WallMS float64

	byID map[string]*TrialResult
}

// Options configures an execution.
type Options struct {
	// Parallel is the worker-pool size; values <= 0 mean GOMAXPROCS.
	Parallel int
}

func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Val returns one metric of one trial. It panics on a missing trial or
// key: assembly runs only after every trial succeeded, so a miss is a
// spec-authoring bug, not a runtime condition.
func (r *Result) Val(trial, key string) float64 {
	tr, ok := r.byID[trial]
	if !ok {
		panic(fmt.Sprintf("harness: spec %q has no trial %q", r.Spec, trial))
	}
	v, ok := tr.Values[key]
	if !ok {
		panic(fmt.Sprintf("harness: trial %s/%s has no value %q", r.Spec, trial, key))
	}
	return v
}

// Values returns one trial's metrics, and whether the trial exists.
func (r *Result) Values(trial string) (Values, bool) {
	tr, ok := r.byID[trial]
	if !ok {
		return nil, false
	}
	return tr.Values, true
}

// Err joins the errors of all failed trials, or returns nil.
func (r *Result) Err() error {
	var errs []error
	for i := range r.Trials {
		if t := &r.Trials[i]; t.Error != "" {
			errs = append(errs, fmt.Errorf("trial %s/%s (seed %d): %s", r.Spec, t.Trial, t.Seed, t.Error))
		}
	}
	return errors.Join(errs...)
}

// Execute runs a spec's trials on a bounded worker pool and returns the
// per-trial results in declaration order. All trials are attempted even
// when some fail; the joined failure is available via Result.Err.
func Execute(id string, spec Spec, opts Options) *Result {
	seen := make(map[string]bool, len(spec.Trials))
	for _, t := range spec.Trials {
		if seen[t.ID] {
			// A duplicate would silently shadow the earlier trial's
			// values during assembly; like Register, treat the
			// spec-authoring bug as fatal.
			panic(fmt.Sprintf("harness: spec %q declares trial %q twice", id, t.ID))
		}
		seen[t.ID] = true
	}
	res := &Result{
		Spec:   id,
		Trials: make([]TrialResult, len(spec.Trials)),
		byID:   make(map[string]*TrialResult, len(spec.Trials)),
	}
	start := time.Now()
	workers := opts.workers()
	if workers > len(spec.Trials) {
		workers = len(spec.Trials)
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res.Trials[i] = runTrial(id, spec.Trials[i])
			}
		}()
	}
	for i := range spec.Trials {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	res.WallMS = float64(time.Since(start)) / 1e6
	for i := range res.Trials {
		res.byID[res.Trials[i].Trial] = &res.Trials[i]
	}
	return res
}

// runTrial executes one trial, converting panics into trial errors so a
// bad configuration cannot take down the pool.
func runTrial(specID string, t Trial) (out TrialResult) {
	out = TrialResult{Spec: specID, Trial: t.ID, Seed: t.Seed}
	start := time.Now()
	defer func() {
		out.WallMS = float64(time.Since(start)) / 1e6
		if p := recover(); p != nil {
			out.Values = nil
			out.Error = fmt.Sprintf("panic: %v", p)
		}
	}()
	v, err := t.Run(t.Seed)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.Values = v
	return out
}

// Run executes a spec and assembles its artifact. The artifact depends
// only on trial ids and seeds — never on execution order — so any
// Parallel value produces byte-identical renderings.
func Run(id string, spec Spec, opts Options) (Artifact, *Result, error) {
	res := Execute(id, spec, opts)
	if err := res.Err(); err != nil {
		return nil, res, err
	}
	art, err := assemble(id, spec, res)
	if err != nil {
		return nil, res, err
	}
	return art, res, nil
}

// assemble invokes the spec's assembly with panic containment.
func assemble(id string, spec Spec, res *Result) (art Artifact, err error) {
	defer func() {
		if p := recover(); p != nil {
			art, err = nil, fmt.Errorf("harness: assembling %s: panic: %v", id, p)
		}
	}()
	if spec.Assemble == nil {
		return nil, fmt.Errorf("harness: spec %q has no assembly", id)
	}
	return spec.Assemble(res)
}
