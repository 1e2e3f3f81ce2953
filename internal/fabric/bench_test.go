package fabric

import "testing"

// BenchmarkFabricHop measures the hop path: one op is one packet
// forwarded across one link and the switch behind it (serializer,
// credits, arrival, credit return, traversal, route).
func BenchmarkFabricHop(b *testing.B) {
	r := newHopRig()
	defer r.eng.Close()
	r.exchange()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += hopsPerExchange {
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
