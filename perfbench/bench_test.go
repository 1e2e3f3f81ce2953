package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// exactMetrics runs one short traced trial of w and returns every
// metric that must repeat exactly for a seed: the simulated latencies
// and goodput, the layer counters and the virtual-time spans.
func exactMetrics(t *testing.T, w workload, seed uint64) map[string]float64 {
	t.Helper()
	b := &bench{w: w, seed: seed, trials: 1, requests: 150, baseline: runtime.NumGoroutine()}
	ts, err := b.pass(passOpts{trace: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f := ts[0].failures; len(f) > 0 {
		t.Fatalf("output checks failed: %v", f)
	}
	out := make(map[string]float64)
	for _, m := range endToEnd(ts) {
		if strings.HasPrefix(m.name, "sim_") {
			out[m.name] = m.value
		}
	}
	for _, m := range layerCounts(ts) {
		out[m.name] = m.value
	}
	return out
}

// TestWorkloadsRepeatExactly checks that a seed fixes every simulated
// output, and that another seed changes them.
func TestWorkloadsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := exactMetrics(t, w, 7), exactMetrics(t, w, 7)
			if !reflect.DeepEqual(a, b) {
				for k := range a {
					if a[k] != b[k] {
						t.Errorf("%s: %v then %v for the same seed", k, a[k], b[k])
					}
				}
			}
			c := exactMetrics(t, w, 8)
			for _, k := range []string{"sim_p50_us", "sim_p99_us", "sim_goodput_rps", "sim.events_per_req"} {
				if a[k] == c[k] {
					t.Errorf("%s: %v for seeds 7 and 8", k, a[k])
				}
			}
		})
	}
}

// TestLostRequestFailsTheTrial checks that a request parked for good
// fails its trial instead of hanging the run, while a ticker keeps the
// event queue busy the way the rigs' agents do.
func TestLostRequestFailsTheTrial(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	eng.Go("ticker", func(p *sim.Proc) {
		for {
			p.Sleep(sim.Microsecond)
		}
	})
	never := sim.NewCompletion(eng)
	tr := &trial{}
	err := tr.measure(eng, load{
		requests: 20,
		workers:  2,
		arrivals: poisson(sim.NewRNG(1), 1e5),
		deadline: 100 * sim.Microsecond,
		draw:     func(*request) {},
		serve: func(p *sim.Proc, r *request) error {
			if r.id == 7 {
				p.Await(never)
			}
			return nil
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.offered != 20 || tr.completed != 19 || len(tr.failures) != 1 {
		t.Errorf("offered %d, completed %d, failures %q; want 20, 19 and one lost request", tr.offered, tr.completed, tr.failures)
	}
	if err := drive(eng, never, sim.Millisecond); err == nil {
		t.Error("drive returned on a completion that never fires")
	}
}

// TestFailoverDoesNotEndALease checks that a failed-over lease still has
// to be released by teardown.
func TestFailoverDoesNotEndALease(t *testing.T) {
	tr := &trial{}
	tr.leases.note(core.Event{Type: core.LeaseGranted, Trace: 1})
	tr.leases.note(core.Event{Type: core.LeaseFailedOver, Trace: 1})
	tr.checkLeases()
	if len(tr.failures) != 1 {
		t.Errorf("failed-over lease: failures %q, want one open lease", tr.failures)
	}
	tr.failures = nil
	tr.leases.note(core.Event{Type: core.LeaseReleased, Trace: 1})
	tr.checkLeases()
	if len(tr.failures) != 0 {
		t.Errorf("released lease: failures %q, want none", tr.failures)
	}
}

// benchmarkFile is the part of BENCHMARK.json the output must match.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestOutputMatchesBenchmarkFile runs every workload at a tiny length in
// both modes and checks that the result line carries exactly the metrics
// BENCHMARK.json names, with their units.
func TestOutputMatchesBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json names %v", names, specNames)
	}
	for _, w := range workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			var stdout bytes.Buffer
			b := &bench{w: w, seed: 3, trials: 1, requests: 40, baseline: runtime.NumGoroutine()}
			if err := b.main(&stdout, trace == "1", t.TempDir()); err != nil {
				t.Fatalf("%s --trace %s: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s --trace %s: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s --trace %s: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s --trace %s: metric %s in %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
