package sim

import "testing"

func TestDefaultHopLatencyMatchesTable1(t *testing.T) {
	p := Default()
	// Table 1: point-to-point latency 1.4 µs.
	if got := p.HopLatency(); got != 1400*Nanosecond {
		t.Fatalf("HopLatency = %v, want 1.4µs", got)
	}
}

func TestSerializeAtLinkRate(t *testing.T) {
	p := Default()
	// 64 B payload + 16 B header = 80 B = 640 bits at 5 Gbps -> 128 ns.
	if got := p.Serialize(64); got != 128*Nanosecond {
		t.Fatalf("Serialize(64) = %v, want 128ns", got)
	}
	if got := p.Serialize(0); got != Dur(16*8)/5*1 {
		// 16 B header alone: 128 bits / 5 Gbps = 25.6 -> 26 ns.
		if got != 26*Nanosecond {
			t.Fatalf("Serialize(0) = %v, want 26ns", got)
		}
	}
}

func TestComputeScalesWithClock(t *testing.T) {
	p := Default()
	slow := p.Compute(667)
	x := Xeon()
	fast := x.Compute(667)
	if slow <= fast {
		t.Fatalf("A9 compute %v should exceed Xeon %v", slow, fast)
	}
	// 667 ops at 0.667 GHz, 1 op/cycle = 1000 ns.
	if slow < 990*Nanosecond || slow > 1010*Nanosecond {
		t.Fatalf("Compute(667) = %v, want ~1µs", slow)
	}
	if p.Compute(0) != 0 || p.Compute(-5) != 0 {
		t.Fatal("Compute of non-positive n should be 0")
	}
}

func TestXeonIsFasterAcrossTheBoard(t *testing.T) {
	p, x := Default(), Xeon()
	if x.CPUGHz <= p.CPUGHz {
		t.Error("Xeon clock should exceed prototype clock")
	}
	if x.DRAMLat >= p.DRAMLat {
		t.Error("Xeon DRAM latency should be lower")
	}
	if x.CacheBytes <= p.CacheBytes {
		t.Error("Xeon cache should be larger")
	}
	if x.LocalDiskLat >= p.LocalDiskLat {
		t.Error("Xeon-class SSD should be faster than SD storage")
	}
}
