package experiments

import "testing"

// Fig. 14 is the longest experiment (a full mini data-center sweep), so
// its assertions live in their own test.
func TestFig14MemorySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fig14 sweep is slow")
	}
	r := runSpec("fig14", fig14Spec()).(*Fig14Result)
	n := len(r.Sizes)
	if n < 3 {
		t.Fatalf("sweep too short: %d points", n)
	}
	// Execution time falls monotonically with memory, substantially
	// overall (paper: 15.7x from 70 MB to 350 MB).
	for i := 1; i < n; i++ {
		if r.LocalTime[i] >= r.LocalTime[i-1] || r.RemoteTime[i] >= r.RemoteTime[i-1] {
			t.Fatalf("times not monotone: local=%v remote=%v", r.LocalTime, r.RemoteTime)
		}
	}
	speedup := float64(r.RemoteTime[0]) / float64(r.RemoteTime[n-1])
	if speedup < 4 {
		t.Fatalf("sweep speedup %.1fx, want several-fold (paper 15.7x)", speedup)
	}
	// Miss rate falls to near the paper's ~5%.
	if r.RemoteMiss[n-1] > 0.12 {
		t.Fatalf("final miss rate %.1f%%, want <12%%", r.RemoteMiss[n-1]*100)
	}
	if r.RemoteMiss[0] < 0.5 {
		t.Fatalf("initial miss rate %.1f%% too low to show the sweep", r.RemoteMiss[0]*100)
	}
	// Remote and local memory perform nearly identically ("very slight
	// difference"): within 5% at every point.
	for i := range r.Sizes {
		ratio := float64(r.RemoteTime[i]) / float64(r.LocalTime[i])
		if ratio > 1.05 || ratio < 0.95 {
			t.Fatalf("point %d: remote/local = %.3f, want ~1", i, ratio)
		}
	}
	// Donor impact is negligible (paper: "negligible").
	if r.DonorImpact > 5 {
		t.Fatalf("donor CC impact %.1f%%, paper reports negligible", r.DonorImpact)
	}
	t.Logf("\n%s", r.Table.String())
}
