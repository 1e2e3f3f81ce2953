package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningStatBasics(t *testing.T) {
	var s RunningStat
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-9 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	// Sample std dev of that classic dataset is sqrt(32/7).
	if math.Abs(s.StdDev()-math.Sqrt(32.0/7.0)) > 1e-9 {
		t.Fatalf("StdDev = %v", s.StdDev())
	}
	if math.Abs(s.Sum()-40) > 1e-9 {
		t.Fatalf("Sum = %v, want 40", s.Sum())
	}
}

func TestRunningStatMeanWithinBoundsProperty(t *testing.T) {
	prop := func(vals []float64) bool {
		var s RunningStat
		anyFinite := false
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue // avoid float overflow inside Welford's update
			}
			s.Add(v)
			anyFinite = true
		}
		if !anyFinite {
			return true
		}
		eps := 1e-9 * (1 + math.Abs(s.Min()) + math.Abs(s.Max()))
		return s.Mean() >= s.Min()-eps && s.Mean() <= s.Max()+eps
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestScoreboard(t *testing.T) {
	var s Scoreboard
	s.Add("b", 2)
	s.Add("a", 1)
	s.Add("b", 3)
	if s.Get("b") != 5 || s.Get("a") != 1 || s.Get("zzz") != 0 {
		t.Fatalf("values wrong: a=%d b=%d", s.Get("a"), s.Get("b"))
	}
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 1024: 10, 1 << 40: 40}
	for in, want := range cases {
		if got := log2(in); got != want {
			t.Errorf("log2(%d) = %d, want %d", in, got, want)
		}
	}
}
