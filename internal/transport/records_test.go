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

// lossyLinks are the line's four half-links, in the order a fuzz input
// names them.
var lossyLinks = [4][2]fabric.NodeID{{0, 1}, {1, 0}, {1, 2}, {2, 1}}

// lossyMix is every operation lossyRun knows, to each donor, spread
// over its four procs.
var lossyMix = []byte{0x00, 0x91, 0x52, 0xe3, 0xa4, 0x35, 0xf6, 0x47, 0x08, 0x99, 0x5a, 0xeb, 0xac, 0x3d, 0xfe, 0x4f}

// lossyRun maps the window, and a second one on the new donor, then
// starts up to four procs at time zero from node 0, each running its
// share of ops in order, and runs the engine for a second of virtual
// time, by which its event queue must have drained. An
// op byte's top two bits pick the proc; bit 0 picks the donor, bits 1-3
// the operation (a fill, write or posted write on the donor's window,
// an RDMA read or write, a blocking call, or an inline one) and bits
// 4-5 an RDMA transfer's chunk count less one, or a fill's line. A call
// has a deadline, so it returns even when the fabric gives up on its
// packet. lossyRun returns every operation's completion instant, in
// completion order.
func (r *lineRig) lossyRun(tb testing.TB, ops []byte) []sim.Time {
	tb.Helper()
	r.mapWindow(tb)
	const win2 = winBase + winSize
	if _, err := r.ep[0].CRMA.Map(win2, winSize, 2, newBase); err != nil {
		tb.Fatal(err)
	}
	r.ep[2].CRMA.Export(0, win2, winSize, newBase)
	for i, ep := range r.ep[1:] {
		ep.HandleCall("echo", func(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
			p.Sleep(sim.Dur(i+1) * sim.Microsecond)
			return req, 64
		})
		ep.HandleInline("echo-inline", func(_ fabric.NodeID, req any) (any, int) { return req, 8 })
	}
	a := r.ep[0]
	var procs [4][]byte
	for _, op := range ops {
		procs[op>>6] = append(procs[op>>6], op&63)
	}
	var got []sim.Time
	for _, list := range procs {
		if len(list) == 0 {
			continue
		}
		r.eng.Go("ops", func(p *sim.Proc) {
			for _, op := range list {
				donor := fabric.NodeID(1 + op&1)
				base := winBase + uint64(donor-1)*winSize
				chunks := 1 + int(op>>4)
				kind := "echo"
				switch op >> 1 & 7 {
				case 0:
					a.CRMA.Fill(p, base+64*uint64(op>>4), 64)
				case 1:
					a.CRMA.Write(p, base, 64)
				case 2:
					a.CRMA.PostWrite(donor, base, 8, nil)
				case 3:
					a.RDMA.Read(p, donor, newBase, chunks*r.p.RDMAChunk)
				case 4:
					a.RDMA.Write(p, donor, newBase, chunks*r.p.RDMAChunk)
				case 7:
					kind = "echo-inline"
					fallthrough
				default:
					if resp, ok := a.CallTimeout(p, donor, kind, 16, op, sim.Millisecond); ok && resp != op {
						tb.Errorf("%s answered %v, want %v", kind, resp, op)
					}
				}
				got = append(got, p.Now())
			}
		})
	}
	const horizon = sim.Time(sim.Second)
	r.eng.RunUntil(horizon)
	if n := r.eng.Pending(); n != 0 {
		tb.Fatalf("%d events still queued at %v", n, horizon)
	}
	return got
}

// served reports how many CRMA requests each donor serviced.
func (r *lineRig) served() [2]int64 {
	return [2]int64{r.ep[1].CRMA.Stats.Served, r.ep[2].CRMA.Stats.Served}
}

// slowFor slows the a->b half-link to a rate whose ack delay outruns
// the replay timer, for d from at: a packet that arrives meanwhile is
// acked too late, so its sender replays it, and its receiver drops the
// copy.
func (r *lineRig) slowFor(a, b fabric.NodeID, at sim.Time, d sim.Dur) {
	l := r.ep[0].Net.Link(a, b)
	r.eng.At(at, func() { l.SetGbps(0.01) })
	r.eng.At(at.Add(d), func() { l.SetGbps(0) })
}

// TestTransportRecordReuse pins the paths where an operation's
// bookkeeping outlives, or is cut short of, its normal round trip:
// replay after a retarget, a retarget or kill that lands before the
// request leaves, a late RPC response, and back-to-back RDMA reads.
// Three more rows run lossyMix over a lossy line, where the fabric
// replays packets: a packet a link held for replay must never be
// reused. Each row asserts the exact virtual instant every access or
// call completes, so recycling a record or a packet early, or reading a
// field of a recycled one, moves an instant or leaves an operation
// parked. The crc-errors and link-down-and-up rows' instants and served
// counts were taken with every packet allocated fresh, so recycling
// must not move them; the slowed-in-flight row's were taken once a
// replayed copy of a packet its receiver had taken was no longer
// delivered again.
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
		{
			// Every half-link corrupts about one packet in four: the
			// receiver drops each, and its sender replays it.
			name: "crc-errors",
			run: func(t *testing.T, r *lineRig) []sim.Time {
				for _, ab := range lossyLinks {
					r.ep[0].Net.Link(ab[0], ab[1]).SetErrorRate(0.25)
				}
				got := r.lossyRun(t, lossyMix)
				if s := r.served(); s != [2]int64{2, 2} {
					t.Errorf("served (old, new) = %v, want [2 2]", s)
				}
				return got
			},
			want: []sim.Time{6423, 6423, 15793, 15793, 23661, 34598, 39375, 73834, 77541, 84248, 100406, 131837, 141519, 159774, 164903, 205197},
		},
		{
			// Links slowed while packets are in flight, so their acks
			// land after the replay timer: a CRMA request and an RDMA
			// read's request to the new donor, and a chunk on its way
			// back, are each replayed. The receiver took the first copy
			// of each, so it drops the replayed one: the donor serves
			// the request once and streams the read once, and the
			// requester counts the chunk once.
			name: "slowed-in-flight",
			run: func(t *testing.T, r *lineRig) []sim.Time {
				r.slowFor(1, 2, 2700, 300)
				r.slowFor(1, 2, 13200, 300)
				r.slowFor(2, 1, 22500, 300)
				got := r.lossyRun(t, lossyMix)
				if s := r.served(); s != [2]int64{2, 2} {
					t.Errorf("served (old, new) = %v, want [2 2]", s)
				}
				if out, in := r.ep[2].RDMA.Stats.BytesOut, r.ep[0].RDMA.Stats.BytesIn; out != 4096 || in != 20480 {
					t.Errorf("RDMA bytes (new donor out, requester in) = (%d, %d), want (4096, 20480)", out, in)
				}
				return got
			},
			want: []sim.Time{3239, 3239, 3291, 6423, 6423, 6476, 17884, 33970, 57414, 57568, 60286, 60440, 63192, 64419, 68244, 71133},
		},
		{
			// The link to the new donor fails for 15 µs and comes back:
			// packets lost in flight are replayed until one gets through.
			name: "link-down-and-up",
			run: func(t *testing.T, r *lineRig) []sim.Time {
				net := r.ep[0].Net
				r.eng.At(15000, func() { net.SetLinkDown(1, 2, true) })
				r.eng.At(30000, func() { net.SetLinkDown(1, 2, false) })
				got := r.lossyRun(t, lossyMix)
				if s := r.served(); s != [2]int64{2, 2} {
					t.Errorf("served (old, new) = %v, want [2 2]", s)
				}
				return got
			},
			want: []sim.Time{3239, 3239, 3291, 6423, 6423, 6476, 17884, 57550, 61283, 64129, 64155, 65508, 68108, 68236, 68397, 73886},
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
// once the engine, the fabric and the channels' free lists are warm, no
// operation allocates. Every packet goes back to its sender's list when
// it is delivered, and every operation's pending slot is a reused one.
// A blocking CRMA access, RDMA transfer (of any chunk count) or call
// awaits the Completion its record keeps, and a blocking call is served
// in a detached proc or inline; an async fill completes the caller's
// own Completion, built once. Each run drives one operation from a
// fresh proc, whose own Go completion is not counted.
func TestTransportSteadyStateAllocs(t *testing.T) {
	r := newLineRig(t)
	r.mapWindow(t)
	r.ep[1].HandleCall("echo", func(_ *sim.Proc, _ fabric.NodeID, req any) (any, int) { return req, 8 })
	r.ep[1].HandleInline("echo-inline", func(_ fabric.NodeID, req any) (any, int) { return req, 8 })
	a := r.ep[0]
	const k = 4
	bulk := k * r.p.RDMAChunk
	mine := sim.NewCompletion(r.eng)
	rows := []struct {
		name string
		want float64
		op   func(p *sim.Proc)
	}{
		{"crma-fill", 0, func(p *sim.Proc) { a.CRMA.Fill(p, winBase, 64) }},
		{"crma-write", 0, func(p *sim.Proc) { a.CRMA.Write(p, winBase, 64) }},
		{"crma-fill-async", 0, func(p *sim.Proc) {
			mine.Rearm()
			a.CRMA.FillAsync(winBase, 64, mine)
			p.Await(mine)
		}},
		{"rdma-read", 0, func(p *sim.Proc) { a.RDMA.Read(p, 1, oldBase, bulk) }},
		{"rdma-write", 0, func(p *sim.Proc) { a.RDMA.Write(p, 1, oldBase, bulk) }},
		{"call", 0, func(p *sim.Proc) { a.CallTimeout(p, 1, "echo", 8, nil, 0) }},
		{"call-timeout", 0, func(p *sim.Proc) { a.CallTimeout(p, 1, "echo", 8, nil, sim.Millisecond) }},
		{"inline-call", 0, func(p *sim.Proc) { a.CallTimeout(p, 1, "echo-inline", 8, nil, 0) }},
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

// TestWireReleasedTwicePanics checks the free list's guard: a wire put
// back twice would be handed to two senders at once.
func TestWireReleasedTwicePanics(t *testing.T) {
	var l wireList[crmaResp]
	w := l.get()
	w.release()
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a wire twice did not panic")
		}
	}()
	w.release()
}

// TestHeldWiresAreNotReused gates Packet.Held directly. With ReplayTO
// = 0 every link arms a replay timer for every packet it carries, so
// every packet is held: a link may transmit it again after its
// delivery, and that replay reads the packet, so no wire may go back
// on its list. Fills, writes, RDMA reads and calls must then leave
// every list on the line empty; with the default timeout the same ops
// put wires back, so the check can fail.
func TestHeldWiresAreNotReused(t *testing.T) {
	for _, held := range []bool{false, true} {
		r := newLineRig(t)
		r.mapWindow(t)
		if held {
			r.p.ReplayTO = 0
		}
		r.ep[1].HandleCall("echo", func(_ *sim.Proc, _ fabric.NodeID, req any) (any, int) { return req, 8 })
		a := r.ep[0]
		r.eng.Go("ops", func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				a.CRMA.Fill(p, winBase, 64)
				a.CRMA.Write(p, winBase, 64)
				a.RDMA.Read(p, 1, oldBase, 2*r.p.RDMAChunk)
				a.CallTimeout(p, 1, "echo", 8, nil, 0)
			}
		})
		r.eng.Run()
		free := 0
		for _, ep := range r.ep {
			free += len(ep.CRMA.reqs.free) + len(ep.CRMA.resps.free) + len(ep.CRMA.posts.free) +
				len(ep.RDMA.reqs.free) + len(ep.RDMA.chunks.free) + len(ep.reqWires.free) + len(ep.respWires.free)
		}
		if held && free != 0 {
			t.Fatalf("%d wires went back on their lists while their packets were held", free)
		}
		if !held && free == 0 {
			t.Fatal("no wire went back on its list with the default replay timeout")
		}
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
		if resp, _ := r.ep[0].CallTimeout(p, 1, "probe", 8, "ping", 0); resp != "ping" {
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

// TestCallFuncKeepsResumeSlot checks that CallFunc's continuation runs
// where a proc blocked in CallTimeout resumes: at the same instant, in
// the same place among the events around it, with the same result. It
// runs each case both ways and requires the same log and Fired: the
// reply wins; the watchdog wins and no reply comes (the request is lost
// on a down link); and the watchdog wins and the reply lands after it.
func TestCallFuncKeepsResumeSlot(t *testing.T) {
	echo := func(_ fabric.NodeID, req any) (any, int) { return req, 8 }
	for _, tc := range []callSlotCase{
		{"reply-wins", sim.Millisecond, func(r *lineRig, _ func(string)) { r.ep[1].HandleInline("probe", echo) }, "ping true"},
		{"timeout-wins", 5 * sim.Microsecond, func(r *lineRig, _ func(string)) {
			r.ep[1].HandleInline("probe", echo)
			r.ep[0].Net.SetLinkDown(0, 1, true)
		}, "<nil> false"},
		{"late-reply", 5 * sim.Microsecond, func(r *lineRig, note func(string)) {
			r.ep[1].HandleCall("probe", func(p *sim.Proc, from fabric.NodeID, req any) (any, int) {
				p.Sleep(10 * sim.Microsecond)
				note("replied")
				return echo(from, req)
			})
		}, "<nil> false"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, wakeAt := callSlotLog(t, tc, false, 0)
			want, wantFired, _ := callSlotLog(t, tc, false, wakeAt)
			got, gotFired, _ := callSlotLog(t, tc, true, wakeAt)
			if !slices.Contains(want, fmt.Sprintf("%d woke %s", wakeAt, tc.result)) {
				t.Fatalf("test premise broken: CallTimeout's log %q lacks its result %q", want, tc.result)
			}
			if !slices.Equal(got, want) || gotFired != wantFired {
				t.Fatalf("CallFunc fired %d events in order\n %q\nCallTimeout %d in order\n %q", gotFired, got, wantFired, want)
			}
		})
	}
}

// callSlotCase is one TestCallFuncKeepsResumeSlot case: the call's
// timeout, the rig's service and faults (given the log's note), and
// the result the caller logs.
type callSlotCase struct {
	name    string
	timeout sim.Dur
	setup   func(r *lineRig, note func(string))
	result  string
}

// callSlotLog makes tc's call from node 0 to node 1, made by a proc's
// CallTimeout or, with byFunc, by CallFunc in an event in the slot of
// that proc's start. The caller logs its wake, and an event it
// schedules then. When wakeAt is set, an event queued at time 0 for
// that instant chains three more there, so events queued before and
// after the wake surround it. It returns the log of instants and names
// in firing order, the events fired, and the wake's instant.
func callSlotLog(t *testing.T, tc callSlotCase, byFunc bool, wakeAt sim.Time) ([]string, uint64, sim.Time) {
	r := newLineRig(t)
	var log []string
	var woke sim.Time
	note := func(what string) { log = append(log, fmt.Sprintf("%d %s", r.eng.Now(), what)) }
	tc.setup(r, note)
	done := func(resp any, ok bool) {
		woke = r.eng.Now()
		note(fmt.Sprintf("woke %v %v", resp, ok))
		r.eng.Schedule(0, func() { note("after-wake") })
	}
	if wakeAt > 0 {
		r.eng.At(wakeAt, func() {
			note("same-1")
			r.eng.Schedule(0, func() {
				note("same-2")
				r.eng.Schedule(0, func() {
					note("same-3")
					r.eng.Schedule(0, func() { note("same-4") })
				})
			})
		})
	}
	if byFunc {
		r.eng.Schedule(0, func() { r.ep[0].CallFunc(1, "probe", 8, "ping", tc.timeout, done) })
	} else {
		r.eng.Go("caller", func(p *sim.Proc) { done(r.ep[0].CallTimeout(p, 1, "probe", 8, "ping", tc.timeout)) })
	}
	r.eng.Run()
	if n := r.ep[0].pending.len(); n != 0 {
		t.Fatalf("%d calls still pending", n)
	}
	return log, r.eng.Fired(), woke
}
