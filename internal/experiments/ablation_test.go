package experiments

import "testing"

func TestAblationMSHRHelpsStreaming(t *testing.T) {
	points := ablationMSHRs
	if testing.Short() {
		points = ablationMSHRsShort
	}
	r := runSpec("ablation-mshr", ablationMSHRSpec(points)).(*AblationMSHRResult)
	// More MSHRs monotonically (weakly) help the contiguous sweep, and
	// going from a blocking core (1) to even modest MLP is a real win.
	for i := 1; i < len(r.MSHRs); i++ {
		if r.Times[i] > r.Times[i-1] {
			t.Fatalf("mshr=%d slower than mshr=%d: %v", r.MSHRs[i], r.MSHRs[i-1], r.Times)
		}
	}
	if float64(r.Times[0]) < 1.2*float64(r.Times[len(r.Times)-1]) {
		t.Fatalf("MLP buys <20%%: %v", r.Times)
	}
	t.Logf("\n%s", r.Table.String())
}

func TestAblationReadaheadHelpsStreaming(t *testing.T) {
	r := runSpec("ablation-readahead", ablationReadaheadSpec()).(*AblationReadaheadResult)
	first, last := r.Times[0], r.Times[len(r.Times)-1]
	if last >= first {
		t.Fatalf("readahead does not help streaming: %v", r.Times)
	}
	t.Logf("\n%s", r.Table.String())
}

func TestAblationWindowNarrowsCreditGap(t *testing.T) {
	r := runSpec("ablation-window", ablationWindowSpec()).(*AblationWindowResult)
	// The collaborative path always wins, but a big enough window covers
	// the credit latency, narrowing the relative gain.
	firstGain := (r.CRMAMBps[0] - r.QPairMBps[0]) / r.QPairMBps[0]
	lastGain := (r.CRMAMBps[len(r.Windows)-1] - r.QPairMBps[len(r.Windows)-1]) /
		r.QPairMBps[len(r.Windows)-1]
	for i := range r.Windows {
		if r.CRMAMBps[i] < r.QPairMBps[i] {
			t.Fatalf("window %d: CRMA credits (%v) slower than QPair credits (%v)",
				r.Windows[i], r.CRMAMBps[i], r.QPairMBps[i])
		}
	}
	if lastGain >= firstGain {
		t.Fatalf("gain should narrow with window: %.2f -> %.2f", firstGain, lastGain)
	}
	t.Logf("\n%s", r.Table.String())
}

func TestAblationGranularityCrossover(t *testing.T) {
	r := runSpec("ablation-granularity", ablationGranularitySpec()).(*AblationGranularityResult)
	// CRMA wins tiny transfers; RDMA wins big ones; the crossover sits
	// in between (the Advise threshold's justification).
	if r.RDMA[0] <= r.CRMA[0] {
		t.Fatalf("64B: RDMA (%v) should lose to CRMA (%v)", r.RDMA[0], r.CRMA[0])
	}
	last := len(r.Sizes) - 1
	if r.CRMA[last] <= r.RDMA[last] {
		t.Fatalf("64KB: CRMA (%v) should lose to RDMA (%v)", r.CRMA[last], r.RDMA[last])
	}
	t.Logf("\n%s", r.Table.String())
}
