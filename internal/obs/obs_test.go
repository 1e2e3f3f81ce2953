package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// TestRegistryProm pins the exposition format: sorted families, HELP
// and TYPE lines, label sets rendered stably, histogram as cumulative
// buckets plus sum and count.
func TestRegistryProm(t *testing.T) {
	var r Registry
	r.Counter("venice_grants_total", "Grants.", nil).Add(3)
	r.Counter("venice_lease_events_total", "Events.", map[string]string{"type": "granted", "kind": "memory"}).Inc()
	r.Gauge("venice_donors", "Registered donors.", nil).Set(7)
	h := r.Histogram("venice_req_ns", "Request latency.", nil)
	h.Observe(5)
	h.Observe(5)
	h.Observe(1000)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP venice_grants_total Grants.\n# TYPE venice_grants_total counter\nvenice_grants_total 3\n",
		`venice_lease_events_total{kind="memory",type="granted"} 1`,
		"# TYPE venice_donors gauge\nvenice_donors 7\n",
		"# TYPE venice_req_ns histogram\n",
		`venice_req_ns_bucket{le="5"} 2`,
		`venice_req_ns_bucket{le="+Inf"} 3`,
		"venice_req_ns_sum 1010\n",
		"venice_req_ns_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must appear in sorted order.
	if strings.Index(out, "venice_donors") > strings.Index(out, "venice_grants_total") {
		t.Error("families not sorted by name")
	}
	// le buckets must be cumulative and the 1000-observation bucket edge
	// must come from the shared log-linear layout.
	if !strings.Contains(out, `le="1023"`) {
		t.Errorf("expected bucket edge 1023 for observation 1000:\n%s", out)
	}
}

// TestRegistryIdempotent verifies repeated lookups return the same
// series and kind conflicts panic.
func TestRegistryIdempotent(t *testing.T) {
	var r Registry
	a := r.Counter("x_total", "", nil)
	b := r.Counter("x_total", "", nil)
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("aliased counters diverged")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "", nil)
}

// TestHistogramBridge verifies the bridge preserves the exact-merge
// histogram's quantile behavior.
func TestHistogramBridge(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	snap := h.Snapshot()
	if snap.N() != 1000 {
		t.Fatalf("snapshot n = %d, want 1000", snap.N())
	}
	var want sim.LatencyHist
	for i := int64(1); i <= 1000; i++ {
		want.Add(i)
	}
	if snap.Quantile(99) != want.Quantile(99) || snap.Max() != want.Max() {
		t.Errorf("bridge drifted from sim.LatencyHist: p99 %d vs %d", snap.Quantile(99), want.Quantile(99))
	}
}

// TestTraceStoreChain verifies events with one trace id read back as
// an ordered span chain and id 0 is ignored.
func TestTraceStoreChain(t *testing.T) {
	s := NewTraceStore(8)
	s.Add(core.Event{Type: core.LeaseGranted, Trace: 9, At: 1})
	s.Add(core.Event{Type: core.LeaseFailedOver, Trace: 9, At: 2})
	s.Add(core.Event{Type: core.LeaseReleased, Trace: 9, At: 3})
	s.Add(core.Event{Type: core.LeaseGranted, Trace: 0, At: 4}) // ignored

	chain := s.Get(9)
	if len(chain) != 3 {
		t.Fatalf("chain length %d, want 3", len(chain))
	}
	if chain[0].Type != core.LeaseGranted || chain[2].Type != core.LeaseReleased {
		t.Errorf("chain out of order: %+v", chain)
	}
	if s.Len() != 1 {
		t.Errorf("store holds %d traces, want 1 (trace 0 must be ignored)", s.Len())
	}
	if got := s.Get(404); got != nil {
		t.Errorf("unknown trace returned %v", got)
	}
}

// TestTraceStoreEviction verifies the bound: the oldest-started trace
// falls out when a new id arrives at capacity.
func TestTraceStoreEviction(t *testing.T) {
	s := NewTraceStore(2)
	s.Add(core.Event{Trace: 1})
	s.Add(core.Event{Trace: 2})
	s.Add(core.Event{Trace: 3}) // evicts 1
	if s.Get(1) != nil {
		t.Error("oldest trace survived eviction")
	}
	if s.Get(2) == nil || s.Get(3) == nil {
		t.Error("recent traces evicted")
	}
	if _, evicted := s.Stats(); evicted != 1 {
		t.Errorf("evicted = %d, want 1", evicted)
	}
}

// TestBroadcasterDropsSlowConsumer verifies a subscriber that stops
// draining is dropped (channel closed) without stalling Publish or
// losing messages for healthy peers.
func TestBroadcasterDropsSlowConsumer(t *testing.T) {
	b := NewBroadcaster()
	slow := b.Subscribe(1)
	fast := b.Subscribe(16)

	b.Publish([]byte("one")) // fills slow's buffer
	b.Publish([]byte("two")) // overflows it: slow is dropped

	if got := b.Subscribers(); got != 1 {
		t.Fatalf("%d subscribers after overflow, want 1", got)
	}
	// slow's channel delivers the buffered message then closes.
	if msg := <-slow.C; string(msg) != "one" {
		t.Errorf("slow got %q, want \"one\"", msg)
	}
	if _, open := <-slow.C; open {
		t.Error("dropped subscriber's channel still open")
	}
	// fast saw both messages.
	if a, b2 := <-fast.C, <-fast.C; string(a) != "one" || string(b2) != "two" {
		t.Errorf("fast got %q,%q", a, b2)
	}
	if _, dropped := b.Stats(); dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	b.Unsubscribe(fast)
	b.Unsubscribe(fast) // idempotent
}

// TestBroadcasterConcurrent hammers subscribe/publish/unsubscribe from
// many goroutines; run with -race it pins the fan-out's thread safety.
func TestBroadcasterConcurrent(t *testing.T) {
	b := NewBroadcaster()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Publish([]byte("m"))
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := b.Subscribe(4)
				for j := 0; j < 2; j++ {
					select {
					case <-s.C:
					default:
					}
				}
				b.Unsubscribe(s)
			}
		}()
	}
	wg.Wait()
}

// TestCollectorEndToEnd runs a real acquire/release on a flat cluster
// with a Collector attached and checks all three sinks: counters,
// trace chain, and broadcast JSON. The sim runs to completion first —
// determinism means the observer fires synchronously during Run.
func TestCollectorEndToEnd(t *testing.T) {
	cl := core.NewCluster(core.Config{StartAgents: true})
	defer cl.Close()
	cl.RunFor(1 * sim.Second)

	var reg Registry
	col := &Collector{Reg: &reg, Traces: NewTraceStore(0), Events: NewBroadcaster()}
	sub := col.Events.Subscribe(16)
	cancel := col.Attach(cl)
	defer cancel()

	var trace uint64
	app := cl.Node(7)
	app.Run("obs-test", func(p *sim.Proc) {
		lease, err := cl.Acquire(p, core.NewRequest(core.Memory, app, 64<<20))
		if err != nil {
			t.Errorf("acquire: %v", err)
			return
		}
		trace = lease.Trace()
		lease.Release(p)
	})
	cl.RunFor(10 * sim.Second)

	if trace == 0 {
		t.Fatal("lease carried trace id 0")
	}
	granted := reg.Counter("venice_lease_events_total", "",
		map[string]string{"type": "granted", "kind": "memory"}).Value()
	released := reg.Counter("venice_lease_events_total", "",
		map[string]string{"type": "released", "kind": "memory"}).Value()
	if granted != 1 || released != 1 {
		t.Errorf("counters granted=%d released=%d, want 1/1", granted, released)
	}

	chain := col.Traces.Get(trace)
	if len(chain) != 2 {
		t.Fatalf("trace chain %+v, want grant+release", chain)
	}
	if chain[0].Type != core.LeaseGranted || chain[1].Type != core.LeaseReleased {
		t.Errorf("trace chain out of order: %+v", chain)
	}

	var ev core.Event
	if err := json.Unmarshal(<-sub.C, &ev); err != nil {
		t.Fatalf("broadcast message not Event JSON: %v", err)
	}
	if ev.Type != core.LeaseGranted || ev.Trace != trace {
		t.Errorf("broadcast event %+v, want granted trace %d", ev, trace)
	}

	col.MirrorScoreboard("venice_mn_stats", "MN scoreboard.", &cl.MN.Stats)
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `venice_lease_events_total{kind="memory",type="granted"} 1`) {
		t.Errorf("exposition missing lease counter:\n%s", b.String())
	}
}

// TestCollectorPreemptedEvent drives a real preemption — Preemptible
// holders saturate the pool, a Latency request evicts one — and checks
// the preempted event lands in every sink: the class-labelled counter,
// the victim's trace chain, and the SSE broadcast JSON carrying the
// tenant id and class name.
func TestCollectorPreemptedEvent(t *testing.T) {
	topo := fabric.Mesh3D(2, 2, 2)
	adm := &tenancy.Config{
		PerClass: [tenancy.NumClasses]tenancy.Limits{
			tenancy.Preemptible: {ReserveFrac: 0.5, SLOMult: 16},
			tenancy.Standard:    {ReserveFrac: 0.75, MaxWait: sim.Millisecond, SLOMult: 8},
			tenancy.Latency:     {ReserveFrac: 1.0, SLOMult: 4},
		},
		Preempt: true,
	}
	cl := core.NewCluster(core.Config{
		Topology: &topo, NodeMemBytes: 32 << 20,
		StartAgents: true, Admission: adm,
	})
	defer cl.Close()
	for _, i := range []int{0, 1} { // MN and app out of donor candidacy
		if err := cl.Node(i).MemMgr.Reserve(cl.Node(i).MemMgr.Idle()); err != nil {
			t.Fatalf("reserving node %d: %v", i, err)
		}
	}
	cl.RunFor(10 * sim.Millisecond)

	var reg Registry
	col := &Collector{Reg: &reg, Traces: NewTraceStore(0), Events: NewBroadcaster()}
	sub := col.Events.Subscribe(256)
	cancel := col.Attach(cl)
	defer cancel()

	// 6 donors x 32 MiB = 24 leases of 8 MiB; the Preemptible budget
	// covers 12 of them.
	var victims []uint64
	app := cl.Node(1)
	app.Run("preempt-obs", func(p *sim.Proc) {
		for i := 0; ; i++ {
			l, err := cl.Acquire(p, core.NewRequest(core.Memory, app, 8<<20,
				core.WithTenant(uint64(100+i), tenancy.Preemptible)))
			if err != nil {
				break
			}
			victims = append(victims, l.Trace())
		}
		for { // fill the rest of the pool with untagged leases
			if _, err := cl.Acquire(p, core.NewRequest(core.Memory, app, 8<<20)); err != nil {
				break
			}
		}
		if _, err := cl.Acquire(p, core.NewRequest(core.Memory, app, 8<<20,
			core.WithTenant(7, tenancy.Latency))); err != nil {
			t.Errorf("Latency acquire under pressure: %v", err)
		}
	})
	cl.RunFor(10 * sim.Second)

	if got := reg.Counter("venice_lease_events_total", "",
		map[string]string{"type": "preempted", "kind": "memory", "class": "preemptible"}).Value(); got != 1 {
		t.Errorf("class-labelled preempted counter = %d, want 1", got)
	}

	var chain []core.Event
	for _, tr := range victims {
		for _, ev := range col.Traces.Get(tr) {
			if ev.Type == core.LeasePreempted {
				chain = append(chain, ev)
			}
		}
	}
	if len(chain) != 1 {
		t.Fatalf("found %d preempted spans across victim traces, want 1", len(chain))
	}
	if chain[0].Class != tenancy.Preemptible || chain[0].Tenant < 100 {
		t.Errorf("preempted span lost its identity: %+v", chain[0])
	}

	found := false
	for len(sub.C) > 0 {
		var ev core.Event
		if err := json.Unmarshal(<-sub.C, &ev); err != nil {
			t.Fatalf("broadcast message not Event JSON: %v", err)
		}
		if ev.Type == core.LeasePreempted {
			found = true
			if ev.Trace != chain[0].Trace || ev.Class != tenancy.Preemptible {
				t.Errorf("broadcast preempted event %+v does not match trace span %+v", ev, chain[0])
			}
		}
	}
	if !found {
		t.Error("preempted event never reached the broadcast stream")
	}
}

// TestSnapshotFlat captures a flat cluster mid-lease and checks the
// JSON state reflects the live RAT row with its trace id.
func TestSnapshotFlat(t *testing.T) {
	cl := core.NewCluster(core.Config{StartAgents: true})
	defer cl.Close()
	cl.RunFor(1 * sim.Second)

	var st *State
	app := cl.Node(7)
	app.Run("snap-test", func(p *sim.Proc) {
		lease, err := cl.Acquire(p, core.NewRequest(core.Memory, app, 64<<20))
		if err != nil {
			t.Errorf("acquire: %v", err)
			return
		}
		st = SnapshotFlat(cl) // on the sim goroutine, lease live
		lease.Release(p)
	})
	cl.RunFor(10 * sim.Second)

	if st == nil {
		t.Fatal("no snapshot taken")
	}
	if st.Shape != "flat" || len(st.Donors) == 0 {
		t.Fatalf("snapshot %+v lacks donors", st)
	}
	if len(st.Leases) != 1 || st.Leases[0].Trace == 0 {
		t.Fatalf("snapshot leases %+v, want one traced row", st.Leases)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("state not JSON-marshallable: %v", err)
	}
	// Lease rows spell their resource by name.
	var rows struct {
		Leases []struct{ Kind string } `json:"leases"`
	}
	if raw, _ := json.Marshal(st); json.Unmarshal(raw, &rows) != nil || len(rows.Leases) != 1 || rows.Leases[0].Kind != "memory" {
		t.Errorf("state lease rows %+v, want one with Kind \"memory\"", rows.Leases)
	}

	var cell StateCell
	if cell.Get() != nil {
		t.Error("empty cell returned a state")
	}
	cell.Set(st)
	if cell.Get() != st {
		t.Error("cell did not return the stored state")
	}
}
