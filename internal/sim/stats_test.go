package sim

import "testing"

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
