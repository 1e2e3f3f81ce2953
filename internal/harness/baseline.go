package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// LoadReport reads a JSON report previously written by Report.WriteFile
// — the checked-in BENCH_BASELINE.json in the regression gate's case.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("harness: parsing report %s: %w", path, err)
	}
	return &rep, nil
}

// Drift is one metric whose value differs between a baseline and a
// fresh run, or coverage that appeared/disappeared.
type Drift struct {
	Spec   string
	Trial  string
	Key    string
	Base   float64
	Got    float64
	Reason string
}

// String renders the drift for CI logs.
func (d Drift) String() string {
	if d.Reason != "" {
		return fmt.Sprintf("%s/%s %s: %s", d.Spec, d.Trial, d.Key, d.Reason)
	}
	rel := relDiff(d.Base, d.Got)
	return fmt.Sprintf("%s/%s %s: baseline %g, got %g (%.2f%% drift)",
		d.Spec, d.Trial, d.Key, d.Base, d.Got, 100*rel)
}

// relDiff is |got-base| relative to the baseline magnitude.
func relDiff(base, got float64) float64 {
	if base == got {
		return 0
	}
	if base == 0 {
		return math.Inf(1)
	}
	return math.Abs(got-base) / math.Abs(base)
}

// CompareToBaseline checks every metric of rep against base and returns
// the drifts, sorted deterministically. Only specs present in rep are
// compared (the gate runs a pinned subset), but within a compared spec
// coverage must match both ways: a trial or metric missing from either
// side is a drift, so the gate cannot be silently narrowed. Timing
// metadata (wall_ms and friends) is never compared. Every trial is
// seeded, so the measured Values must match exactly: any change to a
// value is a drift.
func (rep *Report) CompareToBaseline(base *Report) []Drift {
	type key struct{ spec, trial string }
	baseTrials := make(map[key]Values, len(base.Trials))
	for i := range base.Trials {
		t := &base.Trials[i]
		baseTrials[key{t.Spec, t.Trial}] = t.Values
	}
	gotTrials := make(map[key]bool, len(rep.Trials))
	specsRun := make(map[string]bool, len(rep.Specs))
	for _, s := range rep.Specs {
		specsRun[s.ID] = true
	}

	var drifts []Drift
	for i := range rep.Trials {
		t := &rep.Trials[i]
		gotTrials[key{t.Spec, t.Trial}] = true
		bv, ok := baseTrials[key{t.Spec, t.Trial}]
		if !ok {
			drifts = append(drifts, Drift{Spec: t.Spec, Trial: t.Trial,
				Reason: "trial absent from baseline (regenerate the baseline)"})
			continue
		}
		for _, k := range sortedKeys(t.Values) {
			got := t.Values[k]
			b, ok := bv[k]
			if !ok {
				drifts = append(drifts, Drift{Spec: t.Spec, Trial: t.Trial, Key: k,
					Got: got, Reason: "metric absent from baseline (regenerate the baseline)"})
				continue
			}
			if got != b {
				drifts = append(drifts, Drift{Spec: t.Spec, Trial: t.Trial, Key: k, Base: b, Got: got})
			}
		}
		for _, k := range sortedKeys(bv) {
			if _, ok := t.Values[k]; !ok {
				drifts = append(drifts, Drift{Spec: t.Spec, Trial: t.Trial, Key: k,
					Base: bv[k], Reason: "metric vanished from the run"})
			}
		}
	}
	// Baseline trials of a spec we ran must all have executed.
	for i := range base.Trials {
		t := &base.Trials[i]
		if specsRun[t.Spec] && !gotTrials[key{t.Spec, t.Trial}] {
			drifts = append(drifts, Drift{Spec: t.Spec, Trial: t.Trial,
				Reason: "baseline trial vanished from the run"})
		}
	}
	sort.Slice(drifts, func(i, j int) bool {
		a, b := drifts[i], drifts[j]
		if a.Spec != b.Spec {
			return a.Spec < b.Spec
		}
		if a.Trial != b.Trial {
			return a.Trial < b.Trial
		}
		return a.Key < b.Key
	})
	return drifts
}

// MetricCount reports the number of compared (spec, trial, key) metric
// values in the report.
func (rep *Report) MetricCount() int {
	n := 0
	for i := range rep.Trials {
		n += len(rep.Trials[i].Values)
	}
	return n
}

func sortedKeys(v Values) []string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
