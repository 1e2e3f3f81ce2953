// Command venice-bench regenerates the paper's tables and figures from
// the simulator through the trial harness, plus the beyond-paper
// serving sweeps (open-loop load, churn, and the rack-scale
// serving-scale sweep over multi-rack spine fabrics) and the
// engine-smoke cell that pins the event core's exact firing order.
// With no arguments it runs every registered experiment in paper
// order; otherwise pass experiment ids positionally or via -run (see
// -list).
//
// Usage:
//
//	venice-bench [-list] [-run id,id] [-parallel N] [-json out.json]
//	             [-baseline base.json] [-trial substr] [-seed N] [id ...]
//
// Every experiment is decomposed into independent deterministic trials
// executed on a bounded worker pool, so -parallel N produces
// byte-identical tables for any N; only the wall-clock changes. That
// determinism is what makes -baseline an exact regression gate: it
// compares every trial metric of this run against a previously written
// report and exits with status 3 if any value differs.
//
// -trial and -seed isolate single trials for debugging: -trial runs only
// the trials whose id contains the substring, and -seed overrides every
// selected trial's seed, so one failing cell (say, a churn shard) can be
// replayed alone and bisected across seeds. In isolation mode the raw
// per-trial metrics print instead of the assembled table (assembly needs
// the full matrix).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/monitor"
)

var _ = experiments.Table1 // the import's side effect is spec registration

func main() {
	list := flag.Bool("list", false, "list registered experiment ids and exit")
	runIDs := flag.String("run", "", "comma-separated experiment ids to run (combined with positional ids)")
	parallel := flag.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "", "write per-trial results and timing metadata to this file")
	baseline := flag.String("baseline", "", "compare trial metrics against this report; exit 3 on drift")
	trialFilter := flag.String("trial", "", "run only trials whose id contains this substring (prints raw metrics, skips assembly)")
	seedOverride := flag.Uint64("seed", 0, "override the seed of every selected trial (use with -trial to reproduce one cell)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (pprof format) to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (pprof format) to this file at exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: venice-bench [-list] [-run id,id] [-parallel N] [-json out.json] [-baseline base.json] [-trial substr] [-seed N] [-cpuprofile f] [-memprofile f] [id ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	if *list {
		for _, id := range harness.IDs() {
			spec, _ := harness.Lookup(id)
			fmt.Printf("%-21s %s (%d trials)\n", id, spec.Title, len(spec.Trials))
		}
		// The sharing policies the sweeps' policy axes enumerate: the
		// MN's policies table, which Monitor.Policy is set from by name.
		fmt.Printf("\nsharing policies: %s\n", strings.Join(monitor.PolicyNames(), ", "))
		return
	}

	// Profiles flush through exit: os.Exit skips defers, so every
	// termination path below goes through it.
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "venice-bench: %v\n", err)
		os.Exit(1)
	}
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	ids := flag.Args()
	for _, id := range strings.Split(*runIDs, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = harness.IDs()
	}
	opts := harness.Options{Parallel: *parallel}
	if *trialFilter != "" || seedSet {
		// Isolation mode prints raw trial metrics and skips assembly, so
		// there is no report to write or gate; refuse the combination
		// rather than let a script mistake exit 0 for a passed gate.
		if *jsonPath != "" || *baseline != "" {
			fmt.Fprintf(os.Stderr, "venice-bench: -json/-baseline cannot be combined with -trial/-seed (isolation mode has no assembled report)\n")
			exit(2)
		}
		exit(runIsolated(ids, *trialFilter, *seedOverride, seedSet, opts))
	}
	var results []*harness.Result
	start := time.Now()
	for _, id := range ids {
		art, res, err := harness.RunID(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "venice-bench: %v\n", err)
			exit(2)
		}
		results = append(results, res)
		fmt.Println(art.String())
		fmt.Printf("[%s regenerated in %v]\n\n", id, time.Duration(res.WallMS*1e6).Round(time.Millisecond))
	}
	rep := harness.NewReport(opts.Parallel, float64(time.Since(start))/1e6, results)
	if *jsonPath != "" {
		if err := rep.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "venice-bench: writing %s: %v\n", *jsonPath, err)
			exit(1)
		}
	}
	if *baseline != "" {
		base, err := harness.LoadReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "venice-bench: loading baseline: %v\n", err)
			exit(1)
		}
		drifts := rep.CompareToBaseline(base)
		if len(drifts) > 0 {
			fmt.Fprintf(os.Stderr, "venice-bench: %d metric(s) drifted from %s:\n", len(drifts), *baseline)
			for _, d := range drifts {
				fmt.Fprintf(os.Stderr, "  %s\n", d)
			}
			exit(3)
		}
		fmt.Printf("baseline check: %d metrics match %s exactly\n", rep.MetricCount(), *baseline)
	}
	stopProfiles()
}

// startProfiles begins CPU profiling (when cpu is non-empty) and
// returns a stop that flushes it and, when mem is non-empty, writes a
// heap profile. The stop is never nil and is safe to call once on any
// exit path.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuF *os.File
	if cpu != "" {
		cpuF, err = os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("creating -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "venice-bench: closing -cpuprofile: %v\n", err)
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "venice-bench: creating -memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "venice-bench: writing -memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "venice-bench: closing -memprofile: %v\n", err)
			}
		}
	}, nil
}

// runIsolated executes the selected trials alone — filtered by id
// substring, optionally re-seeded — and prints their raw metrics. It
// returns the process exit code: 0 on success, 1 when nothing matched,
// 2 when a trial failed.
func runIsolated(ids []string, filter string, seed uint64, seedSet bool, opts harness.Options) int {
	matched, failed := 0, 0
	for _, id := range ids {
		spec, ok := harness.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "venice-bench: unknown experiment %q\n", id)
			return 1
		}
		var trials []harness.Trial
		for _, tr := range spec.Trials {
			if filter != "" && !strings.Contains(tr.ID, filter) {
				continue
			}
			if seedSet {
				tr.Seed = seed
			}
			trials = append(trials, tr)
		}
		if len(trials) == 0 {
			continue
		}
		matched += len(trials)
		res := harness.Execute(id, harness.Spec{Title: spec.Title, Trials: trials}, opts)
		for _, tr := range res.Trials {
			fmt.Printf("%s/%s (seed %d, %.1fms)\n", id, tr.Trial, tr.Seed, tr.WallMS)
			if tr.Error != "" {
				fmt.Printf("  ERROR: %s\n", tr.Error)
				failed++
				continue
			}
			keys := make([]string, 0, len(tr.Values))
			for k := range tr.Values {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("  %-18s %v\n", k, tr.Values[k])
			}
		}
	}
	if matched == 0 {
		fmt.Fprintf(os.Stderr, "venice-bench: no trial matches -trial %q in %v\n", filter, ids)
		return 1
	}
	if failed > 0 {
		return 2
	}
	return 0
}
