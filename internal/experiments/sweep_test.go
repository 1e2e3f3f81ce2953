package experiments

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
)

// runCells runs an ad-hoc cell list through the harness, like the
// registered specs do (the tests' reduced matrices).
func runCells[R any](t *testing.T, s sweep[R], cells []cell) *SweepResult[R] {
	t.Helper()
	art, _, err := harness.Run("subset", s.spec("subset", cells), harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return art.(*SweepResult[R])
}

// TestSweepParallelismByteIdentical is the harness contract applied to
// every open-loop family: arrival streams, chaos schedules, cluster
// builds, placements and preemption decisions are all seeded per trial,
// so any -parallel value renders the same bytes. Each subset keeps one
// multi-shard cell so the exact histogram merge stays exercised. The CI
// race job runs this test under the detector.
func TestSweepParallelismByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    harness.Spec
		columns []string // the table must keep these
	}{
		{"serving", servingSweep.spec("subset", append(servingSmokeCells(), servingCellsShort()[:1]...)), []string{"p999"}},
		{"scale", servingSweep.spec("subset", scaleTestCells()), []string{"p999"}},
		{"churn", churnSweep.spec("subset", append(churnSmokeCells(), churnCellsShort()[1])), []string{"recov mean"}},
		{"inference", inferSweep.spec("subset", append(inferSmokeCells(), inferHierCell(2, 0.5, 120, 1))), []string{"failovers"}},
		{"tenancy", tenancySweep.spec("subset", append(tenancySmokeCells(), tenancySweepCell(0.6, 120, 2))), []string{"fairness"}},
		{"migrate", migrateSmokeSpec(), []string{"p999", "recov mean"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sequential, _, err := harness.Run(tc.name, tc.spec, harness.Options{Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, _, err := harness.Run(tc.name, tc.spec, harness.Options{Parallel: 4})
			if err != nil {
				t.Fatal(err)
			}
			if sequential.String() != parallel.String() {
				t.Fatalf("%s renders differently under -parallel 4:\n%s\nvs\n%s", tc.name, sequential, parallel)
			}
			for _, col := range tc.columns {
				if !strings.Contains(sequential.String(), col) {
					t.Fatalf("%s table lost its %q column:\n%s", tc.name, col, sequential)
				}
			}
		})
	}
}

// TestGatedSpecsMatchBaseline pins every spec the bench-regression gate
// compares: the registered spec's title and ordered (trial id, seed)
// list must equal BENCH_BASELINE.json's, so a renamed trial or a shifted
// shard seed fails here without running a simulation.
func TestGatedSpecsMatchBaseline(t *testing.T) {
	base, err := harness.LoadReport(filepath.Join("..", "..", "BENCH_BASELINE.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, tr := range base.Trials {
		want[tr.Spec] = append(want[tr.Spec], fmt.Sprintf("%s seed %d", tr.Trial, tr.Seed))
	}
	for _, sr := range base.Specs {
		spec, ok := harness.Lookup(sr.ID)
		if !ok {
			t.Errorf("baseline spec %q is not registered", sr.ID)
			continue
		}
		if spec.Title != sr.Title {
			t.Errorf("spec %q title %q, baseline %q", sr.ID, spec.Title, sr.Title)
		}
		var got []string
		for _, tr := range spec.Trials {
			got = append(got, fmt.Sprintf("%s seed %d", tr.ID, tr.Seed))
		}
		if !slices.Equal(got, want[sr.ID]) {
			t.Errorf("spec %q trials drifted from the baseline:\ngot  %q\nwant %q", sr.ID, got, want[sr.ID])
		}
	}
}
