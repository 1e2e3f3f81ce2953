package transport

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// lineRig is three endpoints on a Line(3): node 0 is the requester,
// node 1 the old donor one hop away, and node 2 the new donor two hops
// away.
type lineRig struct {
	eng *sim.Engine
	p   sim.Params
	ep  [3]*Endpoint
}

// The requester's window and the two donors' regions backing it.
const (
	winBase = uint64(0x1_0000_0000)
	winSize = uint64(1 << 20)
	oldBase = uint64(0x4000_0000)
	newBase = uint64(0x8000_0000)
)

func newLineRig(tb testing.TB) *lineRig {
	tb.Helper()
	eng := sim.New()
	tb.Cleanup(eng.Close)
	r := &lineRig{eng: eng, p: sim.Default()}
	net := fabric.NewNetwork(eng, &r.p, fabric.Line(3), sim.NewRNG(1))
	for i := range r.ep {
		r.ep[i] = NewEndpoint(eng, &r.p, net, fabric.NodeID(i))
	}
	return r
}

// mapWindow maps the requester's window onto the old donor and exports
// it at both donors, so a retarget finds the new donor ready.
func (r *lineRig) mapWindow(tb testing.TB) *RAMTEntry {
	tb.Helper()
	e, err := r.ep[0].CRMA.Map(winBase, winSize, 1, oldBase)
	if err != nil {
		tb.Fatal(err)
	}
	r.ep[1].CRMA.Export(0, winBase, winSize, oldBase)
	r.ep[2].CRMA.Export(0, winBase, winSize, newBase)
	return e
}

// served reports how many CRMA requests each donor serviced.
func (r *lineRig) served() [2]int64 {
	return [2]int64{r.ep[1].CRMA.Stats.Served, r.ep[2].CRMA.Stats.Served}
}

// TestTransportRecordReuse pins the paths where an operation's
// bookkeeping outlives, or is cut short of, its normal round trip:
// replay after a retarget, a retarget or kill that lands before the
// request leaves, a late RPC response, and back-to-back RDMA reads. Each
// row asserts the exact virtual instant every access or call completes,
// so recycling a record early, or reading a field of a recycled one,
// moves an instant or leaves an operation parked.
func TestTransportRecordReuse(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, r *lineRig) []sim.Time
		want []sim.Time
	}{
		{
			// Retarget and ReplayWindow while the old donor's response is
			// on the wire: the fill completes once, at that response; the
			// replay's response is dropped, and does not complete the
			// next fill, which is still in flight when it lands.
			name: "replay-old-donor-answers",
			run: func(t *testing.T, r *lineRig) []sim.Time {
				e := r.mapWindow(t)
				c := r.ep[0].CRMA
				var got []sim.Time
				r.eng.Go("cpu", func(p *sim.Proc) {
					c.Fill(p, winBase, 64)
					got = append(got, p.Now())
					c.Fill(p, winBase+64, 64)
					got = append(got, p.Now())
				})
				// The old donor's response arrives at one round trip less
				// the requester's de-packetize step; fire mid-hop.
				rtt := 2*r.p.HopLatency() + r.p.Serialize(16) + r.p.Serialize(64) + 3*r.p.CRMALogic + r.p.DRAMLat
				r.eng.At(sim.Time(0).Add(rtt-r.p.CRMALogic-r.p.HopLatency()/2), func() {
					c.Retarget(e, 2, newBase)
					if n := c.ReplayWindow(winBase, winSize); n != 1 {
						t.Errorf("replayed %d accesses, want 1", n)
					}
				})
				r.eng.Run()
				if s := r.served(); s != [2]int64{1, 2} {
					t.Errorf("served (old, new) = %v, want [1 2]", s)
				}
				return got
			},
			want: []sim.Time{3239, 9457},
		},
		{
			// A retarget inside the CRMA logic delay, before the request
			// has left: the request goes to the new donor.
			name: "retarget-before-send",
			run: func(t *testing.T, r *lineRig) []sim.Time {
				e := r.mapWindow(t)
				c := r.ep[0].CRMA
				var got []sim.Time
				r.eng.Go("cpu", func(p *sim.Proc) {
					c.Fill(p, winBase, 64)
					got = append(got, p.Now())
				})
				r.eng.At(sim.Time(0).Add(r.p.CRMALogic/2), func() { c.Retarget(e, 2, newBase) })
				r.eng.Run()
				if s := r.served(); s != [2]int64{0, 1} {
					t.Errorf("served (old, new) = %v, want [0 1]", s)
				}
				return got
			},
			want: []sim.Time{6218},
		},
		{
			// A kill inside the CRMA logic delay completes the fill at
			// once as poison. The request still leaves, and its response
			// must not complete the next fill, issued on the window
			// re-mapped to the new donor and still in flight when the
			// old donor's response lands.
			name: "kill-before-send",
			run: func(t *testing.T, r *lineRig) []sim.Time {
				e := r.mapWindow(t)
				c := r.ep[0].CRMA
				var got []sim.Time
				r.eng.Go("cpu", func(p *sim.Proc) {
					c.Fill(p, winBase, 64)
					got = append(got, p.Now())
					c.Fill(p, winBase, 64)
					got = append(got, p.Now())
				})
				r.eng.At(sim.Time(0).Add(r.p.CRMALogic/2), func() {
					c.KillWindow(winBase, winSize)
					c.Unmap(e)
					if _, err := c.Map(winBase, winSize, 2, newBase); err != nil {
						t.Error(err)
					}
				})
				r.eng.Run()
				if c.Stats.DeadAccesses != 1 {
					t.Errorf("DeadAccesses = %d, want 1", c.Stats.DeadAccesses)
				}
				if s := r.served(); s != [2]int64{1, 1} {
					t.Errorf("served (old, new) = %v, want [1 1]", s)
				}
				return got
			},
			want: []sim.Time{30, 6269},
		},
		{
			// A call times out; a second call to the same peer is issued
			// before the first one's late response lands. The late
			// response is dropped, and the second call returns its own.
			name: "late-rpc-response",
			run: func(t *testing.T, r *lineRig) []sim.Time {
				r.ep[1].HandleCall("echo", func(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
					p.Sleep(10 * sim.Microsecond)
					return req, 8
				})
				a := r.ep[0]
				var got []sim.Time
				r.eng.Go("caller", func(p *sim.Proc) {
					if resp, ok := a.CallTimeout(p, 1, "echo", 8, "first", 5*sim.Microsecond); ok || resp != nil {
						t.Errorf("first call = (%v, %v), want a timeout", resp, ok)
					}
					got = append(got, p.Now())
					if resp, ok := a.CallTimeout(p, 1, "echo", 8, "second", sim.Millisecond); !ok || resp != "second" {
						t.Errorf("second call = (%v, %v), want (second, true)", resp, ok)
					}
					got = append(got, p.Now())
				})
				r.eng.Run()
				return got
			},
			want: []sim.Time{5000, 17876},
		},
		{
			// Two back-to-back reads of different chunk counts: each
			// completes after its own last chunk.
			name: "rdma-read-after-read",
			run: func(t *testing.T, r *lineRig) []sim.Time {
				a := r.ep[0]
				var got []sim.Time
				r.eng.Go("reader", func(p *sim.Proc) {
					a.RDMA.Read(p, 1, oldBase, 4*r.p.RDMAChunk)
					got = append(got, p.Now())
					a.RDMA.Read(p, 1, oldBase, r.p.RDMAChunk)
					got = append(got, p.Now())
				})
				r.eng.Run()
				return got
			},
			want: []sim.Time{34433, 49129},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newLineRig(t)
			got := row.run(t, r)
			if !slices.Equal(got, row.want) {
				t.Fatalf("completion instants = %v, want %v", got, row.want)
			}
			if n := r.eng.LiveProcs(); n != 0 {
				t.Fatalf("%d procs still parked", n)
			}
		})
	}
}

// TestTransportSteadyStateAllocs is the transport path's pooling gate:
// once the engine, the fabric and the channels' free lists are warm, an
// operation allocates only its packets and the Completion it hands out.
// A call keeps its own Completion in its record, so it allocates its two
// packets and its service proc's Completion, or its packets alone when
// served inline. Each run drives one operation from a fresh proc, whose
// own Go completion is not counted.
func TestTransportSteadyStateAllocs(t *testing.T) {
	r := newLineRig(t)
	r.mapWindow(t)
	r.ep[1].HandleCall("echo", func(_ *sim.Proc, _ fabric.NodeID, req any) (any, int) { return req, 8 })
	r.ep[1].HandleInline("echo-inline", func(_ fabric.NodeID, req any) (any, int) { return req, 8 })
	a := r.ep[0]
	const k = 4
	bulk := k * r.p.RDMAChunk
	rows := []struct {
		name string
		want float64
		op   func(p *sim.Proc)
	}{
		{"crma-fill", 3, func(p *sim.Proc) { a.CRMA.Fill(p, winBase, 64) }},
		{"crma-write", 3, func(p *sim.Proc) { a.CRMA.Write(p, winBase, 64) }},
		{"rdma-read", k + 2, func(p *sim.Proc) { a.RDMA.Read(p, 1, oldBase, bulk) }},
		{"rdma-write", k + 2, func(p *sim.Proc) { a.RDMA.Write(p, 1, oldBase, bulk) }},
		{"call", 3, func(p *sim.Proc) { a.Call(p, 1, "echo", 8, nil) }},
		{"call-timeout", 3, func(p *sim.Proc) { a.CallTimeout(p, 1, "echo", 8, nil, sim.Millisecond) }},
		{"inline-call", 2, func(p *sim.Proc) { a.Call(p, 1, "echo-inline", 8, nil) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			run := func() {
				r.eng.Go("op", row.op)
				r.eng.Run()
			}
			for i := 0; i < 3000; i++ {
				run()
			}
			if got := testing.AllocsPerRun(500, run) - 1; got > row.want {
				t.Fatalf("steady-state %s allocates %.2f/op, want <= %.0f", row.name, got, row.want)
			}
		})
	}
}

// serviceSlotLog drives one call from node 0 to a "probe" handler on
// node 1, which register installs. The handler records its instant,
// sends a raw notice to node 2, schedules a same-instant event and
// spawns a proc. An event queued at time 0 for the request's arrival
// instant chains three more events at that instant, so events queued
// before and after the arrival surround the handler. The log holds each
// logged event's instant and name, in firing order.
func serviceSlotLog(t *testing.T, register func(ep *Endpoint, h InlineHandler)) []string {
	const arrive = sim.Time(1438) // the request's arrival at node 1
	r := newLineRig(t)
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%d %s", r.eng.Now(), what)) }
	r.ep[2].Handle("notice", func(*fabric.Packet) { note("notice") })
	register(r.ep[1], func(from fabric.NodeID, req any) (any, int) {
		note("handler")
		r.ep[1].SendRaw(2, "notice", 16, nil)
		r.eng.Schedule(0, func() { note("handler-event") })
		r.eng.Go("spawned", func(*sim.Proc) { note("spawned") })
		return req, 8
	})
	r.eng.At(arrive, func() {
		note("same-1")
		r.eng.Schedule(0, func() {
			note("same-2")
			r.eng.Schedule(0, func() {
				note("same-3")
				r.eng.Schedule(0, func() { note("same-4") })
			})
		})
	})
	r.eng.Go("caller", func(p *sim.Proc) {
		if resp := r.ep[0].Call(p, 1, "probe", 8, "ping"); resp != "ping" {
			t.Errorf("call answered %v, want ping", resp)
		}
		note("reply")
	})
	r.eng.Run()
	if n := r.eng.LiveProcs(); n != 0 {
		t.Fatalf("%d procs still parked", n)
	}
	return log
}

// TestInlineHandlerKeepsServiceSlot checks that an inline handler runs
// where a proc-served one would: at the same instant and in the same
// place among the events around it, and that everything it schedules
// keeps its place too. The golden log was taken with the handler served
// in a proc; both registrations must reproduce it.
func TestInlineHandlerKeepsServiceSlot(t *testing.T) {
	want := []string{
		"1438 same-1", "1438 same-2", "1438 handler", "1438 same-3",
		"1438 handler-event", "1438 spawned", "1438 same-4",
		"2876 reply", "2889 notice",
	}
	for _, row := range []struct {
		name     string
		register func(ep *Endpoint, h InlineHandler)
	}{
		{"proc", func(ep *Endpoint, h InlineHandler) {
			ep.HandleCall("probe", func(_ *sim.Proc, from fabric.NodeID, req any) (any, int) { return h(from, req) })
		}},
		{"inline", func(ep *Endpoint, h InlineHandler) { ep.HandleInline("probe", h) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			if got := serviceSlotLog(t, row.register); !slices.Equal(got, want) {
				t.Fatalf("firing order:\n got %q\nwant %q", got, want)
			}
		})
	}
}
