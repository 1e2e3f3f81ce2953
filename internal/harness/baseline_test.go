package harness

import (
	"math"
	"path/filepath"
	"testing"
)

// report builds a two-spec report for comparison tests.
func testReport() *Report {
	return &Report{
		Parallel: 1,
		Specs: []SpecReport{
			{ID: "alpha", Trials: 2},
			{ID: "beta", Trials: 1},
		},
		Trials: []TrialResult{
			{Spec: "alpha", Trial: "a/1", Values: Values{"ns": 100, "miss": 0.25}},
			{Spec: "alpha", Trial: "a/2", Values: Values{"ns": 200}},
			{Spec: "beta", Trial: "b/1", Values: Values{"rps": 5000}},
		},
	}
}

func TestCompareToBaselineClean(t *testing.T) {
	rep, base := testReport(), testReport()
	if drifts := rep.CompareToBaseline(base); len(drifts) != 0 {
		t.Fatalf("identical reports drifted: %v", drifts)
	}
	if rep.MetricCount() != 4 {
		t.Fatalf("MetricCount=%d, want 4", rep.MetricCount())
	}
}

// TestCompareToBaselineIsExact checks that the gate has no tolerance:
// a 0.95% change, a change of one ulp either way and a 1.5% change are
// each exactly one drift.
func TestCompareToBaselineIsExact(t *testing.T) {
	for _, got := range []float64{201.9, math.Nextafter(200, 201), math.Nextafter(200, 199), 203} {
		rep, base := testReport(), testReport()
		rep.Trials[1].Values["ns"] = got
		drifts := rep.CompareToBaseline(base)
		if len(drifts) != 1 || drifts[0].Trial != "a/2" || drifts[0].Key != "ns" || drifts[0].Got != got {
			t.Fatalf("ns 200 -> %v: want exactly the a/2 ns drift, got %v", got, drifts)
		}
	}
}

func TestCompareToBaselineCoverage(t *testing.T) {
	// A trial the baseline has never seen.
	rep, base := testReport(), testReport()
	rep.Trials = append(rep.Trials, TrialResult{Spec: "alpha", Trial: "a/3", Values: Values{"ns": 1}})
	if drifts := rep.CompareToBaseline(base); len(drifts) != 1 || drifts[0].Reason == "" {
		t.Fatalf("new trial not flagged: %v", drifts)
	}
	// A baseline trial that vanished from the run.
	rep = testReport()
	rep.Trials = rep.Trials[1:] // drop alpha a/1
	if drifts := rep.CompareToBaseline(base); len(drifts) != 1 || drifts[0].Trial != "a/1" {
		t.Fatalf("vanished trial not flagged: %v", drifts)
	}
	// A metric that vanished, and one that appeared.
	rep = testReport()
	delete(rep.Trials[0].Values, "miss")
	rep.Trials[2].Values["extra"] = 1
	drifts := rep.CompareToBaseline(base)
	if len(drifts) != 2 {
		t.Fatalf("want 2 coverage drifts, got %v", drifts)
	}
	// Specs absent from the run are not compared (the gate runs subsets).
	rep = testReport()
	rep.Specs = rep.Specs[:1]
	rep.Trials = rep.Trials[:2]
	if drifts := rep.CompareToBaseline(base); len(drifts) != 0 {
		t.Fatalf("unran spec compared: %v", drifts)
	}
}

func TestCompareToBaselineZeroHandling(t *testing.T) {
	rep, base := testReport(), testReport()
	base.Trials[0].Values["miss"] = 0
	rep.Trials[0].Values["miss"] = 0
	if drifts := rep.CompareToBaseline(base); len(drifts) != 0 {
		t.Fatalf("0 vs 0 drifted: %v", drifts)
	}
	rep.Trials[0].Values["miss"] = 1e-9
	if drifts := rep.CompareToBaseline(base); len(drifts) != 1 {
		t.Fatalf("0 -> nonzero not flagged: %v", drifts)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := testReport()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if drifts := loaded.CompareToBaseline(rep); len(drifts) != 0 {
		t.Fatalf("round trip drifted: %v", drifts)
	}
	if _, err := LoadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("loading a missing report succeeded")
	}
}
