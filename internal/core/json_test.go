package core

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/tenancy"
)

// TestEventJSONRoundTrip pins the wire form of Event: every Kind and
// EventType marshals to its stable string name and unmarshals back to
// the same value, and a fully populated Event survives a JSON round
// trip field-for-field. External consumers (venice-serve's /events and
// /trace endpoints) depend on these names staying fixed.
func TestEventJSONRoundTrip(t *testing.T) {
	kinds := []Kind{Memory, Swap, Accel, NIC}
	for _, k := range kinds {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal kind %d: %v", k, err)
		}
		want := `"` + k.String() + `"`
		if string(b) != want {
			t.Errorf("kind %d marshals to %s, want %s", k, b, want)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal kind %s: %v", b, err)
		}
		if back != k {
			t.Errorf("kind %d round-trips to %d", k, back)
		}
	}
	if _, err := json.Marshal(Kind(99)); err == nil {
		t.Error("marshal of unknown kind should fail")
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"spindle"`), &k); err == nil {
		t.Error("unmarshal of unknown kind name should fail")
	}

	types := []EventType{LeaseGranted, LeaseReleased, LeaseRevoked,
		LeaseFailedOver, LeaseAcquireFailed, LeaseMigrated, LeasePreempted}
	for _, et := range types {
		b, err := json.Marshal(et)
		if err != nil {
			t.Fatalf("marshal event type %d: %v", et, err)
		}
		want := `"` + et.String() + `"`
		if string(b) != want {
			t.Errorf("event type %d marshals to %s, want %s", et, b, want)
		}
		var back EventType
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal event type %s: %v", b, err)
		}
		if back != et {
			t.Errorf("event type %d round-trips to %d", et, back)
		}
	}

	ev := Event{
		Type: LeaseFailedOver, Kind: Memory, At: sim.Time(1234567),
		Trace: 42, Recipient: 7, Donor: 3, OldDonor: 9,
		Size: 1 << 20, Window: 4096, Err: "boom",
		Tenant: 77, Class: tenancy.Latency,
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatalf("marshal event: %v", err)
	}
	var back Event
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal event %s: %v", b, err)
	}
	if back != ev {
		t.Errorf("event round-trip mismatch:\n got %+v\nwant %+v\nwire %s", back, ev, b)
	}
}

// TestEventTypeStringsStable pins the exact wire names so a rename
// shows up as a test diff, not a silently broken dashboard.
func TestEventTypeStringsStable(t *testing.T) {
	want := map[string]string{
		LeaseGranted.String():       "granted",
		LeaseReleased.String():      "released",
		LeaseRevoked.String():       "revoked",
		LeaseFailedOver.String():    "failed-over",
		LeaseAcquireFailed.String(): "acquire-failed",
		LeaseMigrated.String():      "migrated",
		LeasePreempted.String():     "preempted",
		Memory.String():             "memory",
		Swap.String():               "swap",
		Accel.String():              "accelerator",
		NIC.String():                "nic",
	}
	for got, exp := range want {
		if got != exp {
			t.Errorf("stringer drifted: got %q, want %q", got, exp)
		}
	}
}

// TestEventHubConcurrentCancel exercises the registration list under
// concurrent observe/cancel/emit. Before the hub took a mutex, a
// cancel racing an emit could index a reallocated slice; run with
// -race this test pins the fix.
func TestEventHubConcurrentCancel(t *testing.T) {
	var hub eventHub
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				hub.emit(Event{Type: LeaseGranted, Kind: Memory})
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				cancel := hub.observe(func(Event) {})
				cancel()
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				hub.nextTrace()
			}
		}()
	}
	// Give the observe/cancel workers time to finish, then stop the
	// emitter. No assertion beyond "no race, no panic": an observer
	// cancelled mid-emit may or may not see the in-flight event.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for g := 0; g < 8; g++ {
		cancel := hub.observe(func(Event) {})
		defer cancel()
	}
	close(stop)
	<-done
}

// TestObserverCancelDuringEmit pins emit's snapshot semantics: an
// observer cancelling another mid-delivery neither corrupts the list
// nor suppresses the in-flight round.
func TestObserverCancelDuringEmit(t *testing.T) {
	var hub eventHub
	var later func()
	calls := 0
	hub.observe(func(Event) {
		calls++
		later() // cancel another observer while the emit is walking the list
	})
	later = hub.observe(func(Event) { calls++ })
	hub.emit(Event{Type: LeaseGranted})
	hub.emit(Event{Type: LeaseGranted})
	// First emit delivers to both (snapshot taken before the cancel);
	// second emit delivers only to the survivor.
	if calls != 3 {
		t.Errorf("got %d observer calls, want 3", calls)
	}
}
