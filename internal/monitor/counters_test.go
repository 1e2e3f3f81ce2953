package monitor

import (
	"slices"
	"testing"

	"repro/internal/transport"
)

// TestCounters pins what Counters reports: Get sums a counter's adds,
// an add of 0 lists a counter in Keys, Keys come sorted, and a name no
// counter has reads 0. It also checks the table: every counter has a
// name of its own, and a letter kind's obsolete counter is the kind's
// name with ".obsolete".
func TestCounters(t *testing.T) {
	var s Counters
	s.add(statRelocateReplayed, 2)
	s.add(statBeats, 1)
	s.add(statRelocateReplayed, 3)
	s.add(statHeartbeats, 0)
	if s.Get("relocate.replayed") != 5 || s.Get("beats") != 1 || s.Get("heartbeats") != 0 || s.Get("zzz") != 0 {
		t.Fatalf("values wrong: relocate.replayed=%d beats=%d", s.Get("relocate.replayed"), s.Get("beats"))
	}
	if keys := s.Keys(); !slices.Equal(keys, []string{"beats", "heartbeats", "relocate.replayed"}) {
		t.Fatalf("Keys = %v", keys)
	}
	seen := make(map[string]bool)
	for c, name := range counterNames {
		if name == "" || seen[name] {
			t.Errorf("counter %d is named %q, which is empty or taken", c, name)
		}
		seen[name] = true
	}
	for _, k := range []transport.Kind{kindHotReturn, kindRelocate, kindRevoke, kindRackFree, kindBorrowCancel, kindDelegateFree, kindDelegateCancel} {
		if got := counterNames[obsolete(k)]; got != k.String()+".obsolete" {
			t.Errorf("a dropped %v letter counts %q", k, got)
		}
	}
}
