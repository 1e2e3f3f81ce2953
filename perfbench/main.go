// Command perfbench measures what the simulator costs the host per
// simulated request, end to end and layer by layer, on three open-loop
// workloads driven through the simulator's public API. It checks every
// trial's outputs and prints each metric by name with its unit; the last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; see README.md):
//
//	bash perfbench/run.sh --workload spine-read --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of one untraced pass. --trace 1
// runs that pass again as a reference, then a CPU-profiled pass that also
// records virtual-time spans and layer counters, then an allocation pass,
// and prints the per-layer metrics; it writes the spans and the
// per-layer table under --trace-dir.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
)

// workload is one benchmark input: a rig with its open loop, and the
// length of one trial.
type workload struct {
	name string
	run  func(t *trial, requests int) error
	// requests is the number of measured requests per trial.
	requests int
	// trialSeconds is the serve-phase host time of one trial on the
	// reference machine (2 vCPU, go1.24, GOMAXPROCS 1); --seconds divided
	// by it sets the trial count, so the run length is a function of
	// --seconds alone and the simulated work repeats exactly for a seed.
	trialSeconds float64
}

var workloads = []workload{
	{name: "spine-read", run: spineRead, requests: 1500, trialSeconds: 0.35},
	{name: "lease-crowd", run: leaseCrowd, requests: 2500, trialSeconds: 0.5},
	{name: "device-churn", run: deviceChurn, requests: 1100, trialSeconds: 0.5},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// trials is the number of measured trials for a run of seconds.
func (w workload) trials(seconds float64) int {
	return max(1, int(math.Round(seconds/w.trialSeconds)))
}

// Allocation recording stays off except inside the allocation pass's
// serve phases (see trial.measure).
func init() { runtime.MemProfileRate = 0 }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: spine-read, lease-crowd or device-churn")
	seed := uint64(1)
	fs.Func("seed", "seed every input stream derives from (any 64-bit integer; default 1)", func(s string) error {
		if u, err := strconv.ParseUint(s, 10, 64); err == nil {
			seed = u
			return nil
		}
		i, err := strconv.ParseInt(s, 10, 64)
		seed = uint64(i)
		return err
	})
	seconds := fs.Float64("seconds", 10, "serve-phase host time to measure, in seconds on the reference machine")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced passes and per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/perfbench/trace", "where --trace 1 writes spans and the per-layer table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (spine-read, lease-crowd, device-churn), --seconds > 0 and --trace 0|1\n")
		return 2
	}

	// The engine is single-threaded by contract; a second P only adds
	// scheduler noise.
	runtime.GOMAXPROCS(1)
	b := &bench{w: w, seed: seed, trials: w.trials(*seconds), requests: w.requests, baseline: runtime.NumGoroutine()}
	fmt.Fprintf(stdout, "perfbench %s seed=%d trials=%d requests/trial=%d trace=%d\n", w.name, seed, b.trials, b.requests, *traced)
	if err := b.main(stdout, *traced == 1, *traceDir); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// bench runs one workload's passes at a fixed length.
type bench struct {
	w        workload
	seed     uint64
	trials   int
	requests int
	baseline int // goroutines alive between trials
}

// warmSalt separates the warm-up trial's seed from the measured ones.
const warmSalt = 1 << 40

// runTrial builds and runs one trial once the previous one has unwound.
func (b *bench) runTrial(seed uint64, opts passOpts) (*trial, error) {
	if err := settle(b.baseline); err != nil {
		return nil, err
	}
	resetMaxRSS()
	t := &trial{seed: seed, opts: opts}
	if err := b.w.run(t, b.requests); err != nil {
		return nil, err
	}
	t.maxRSS = maxRSSMiB()
	return t, nil
}

// pass runs trials 0..n-1 with opts. Every pass of a run replays the
// same trial seeds, so they simulate exactly the same requests.
func (b *bench) pass(opts passOpts, n int) ([]*trial, error) {
	ts := make([]*trial, 0, n)
	for k := 0; k < n; k++ {
		t, err := b.runTrial(mix(b.seed, uint64(k)), opts)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", k, err)
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// allocTrials caps the allocation pass: recording every allocation's
// stack slows serving about tenfold, and per-request counts need few
// trials to settle.
func (b *bench) allocTrials() int { return max(1, b.trials/8) }

func (b *bench) main(stdout io.Writer, traced bool, traceDir string) error {
	// One untimed trial first, so code paths, the heap and the runtime
	// are warm before anything is measured.
	if _, err := b.runTrial(mix(b.seed, warmSalt), passOpts{}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	untraced, err := b.pass(passOpts{}, b.trials)
	if err != nil {
		return err
	}
	s := total(untraced)
	correct := true
	for k, t := range untraced {
		for _, f := range t.failures {
			fmt.Fprintf(stdout, "check failed: trial %d: %s\n", k, f)
			correct = false
		}
	}
	fmt.Fprintf(stdout, "ops=%d completed=%d refused=%d failed=%d wall_us_per_req=%.6g\n",
		s.offered, s.completed, s.refused, s.failed, ratio(s.wall*1e6, float64(s.offered)))
	if !traced {
		return printResult(stdout, correct, s.offered, s.failed, endToEnd(untraced))
	}

	lp := layerPasses{untraced: untraced}
	if lp.traced, err = b.pass(passOpts{cpu: true, trace: true}, b.trials); err != nil {
		return err
	}
	before, err := allocsByLayer()
	if err != nil {
		return err
	}
	if lp.allocs, err = b.pass(passOpts{allocs: true}, b.allocTrials()); err != nil {
		return err
	}
	after, err := allocsByLayer()
	if err != nil {
		return err
	}
	lp.allocLayers = make(map[string]int64)
	for l, v := range after {
		lp.allocLayers[l] = v - before[l]
	}
	layers, err := perLayer(lp)
	if err != nil {
		return err
	}
	if err := writeTrace(traceDir, b.w.name, b.seed, lp.traced, layers); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	return printResult(stdout, correct, s.offered, s.failed, layers)
}

// allocsByLayer reads the allocation profile and sums allocated objects
// per layer.
func allocsByLayer() (map[string]int64, error) {
	// A collection publishes every allocation recorded so far.
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return attribute(p, "alloc_objects")
}

// maxRSSMiB is the process's peak resident set (getrusage maxrss) since
// the last resetMaxRSS.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetMaxRSS restarts the peak resident set from the current one
// (Linux 4.0 and later). Where that is unavailable the peak stays the
// process's, which only makes every trial report the same, larger peak.
func resetMaxRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
