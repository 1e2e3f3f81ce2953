package fabric

import "testing"

// BenchmarkFabricHop measures the hop path: one op is one packet
// forwarded across one link and the switch behind it (serializer,
// credits, arrival, traversal, route). Its bursts are twice the links'
// credits, so most sends wait for a credit and most credit returns are
// events of their own.
func BenchmarkFabricHop(b *testing.B) { benchHop(b, 2*hopCredits) }

// BenchmarkFabricHopNoStall is BenchmarkFabricHop with bursts that stay
// within the links' credits, the common case on a loaded fabric: no
// send waits, so no credit return becomes an event.
func BenchmarkFabricHopNoStall(b *testing.B) { benchHop(b, hopCredits) }

// benchHop runs the hop rig with burst packets each way, counting one
// op per forwarded hop.
func benchHop(b *testing.B, burst int) {
	r := newHopRig(b, burst)
	defer r.eng.Close()
	r.exchange()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += r.hops() {
		r.exchange()
	}
}

// hopSink keeps BenchmarkHopCount's lookups live.
var hopSink int

// BenchmarkHopCount measures one shortest-path hop-count query on a
// four-rack spine fabric, cycling over every node pair.
func BenchmarkHopCount(b *testing.B) {
	h := RackSpine(4, 4, 2, 2, 2, 2)
	n := h.N
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hopSink += h.HopCount(NodeID(i%n), NodeID(i/n%n))
	}
}
