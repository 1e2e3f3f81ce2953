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
		ep.HandleCall(kindEcho, func(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
			p.Sleep(sim.Dur(i+1) * sim.Microsecond)
			return req, 64
		})
		ep.HandleInline(kindEchoInline, func(_ fabric.NodeID, req any) (any, int) { return req, 8 })
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
				kind := kindEcho
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
					kind = kindEchoInline
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
				r.ep[1].HandleCall(kindEcho, func(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
					p.Sleep(10 * sim.Microsecond)
					return req, 8
				})
				a := r.ep[0]
				var got []sim.Time
				r.eng.Go("caller", func(p *sim.Proc) {
					if resp, ok := a.CallTimeout(p, 1, kindEcho, 8, "first", 5*sim.Microsecond); ok || resp != nil {
						t.Errorf("first call = (%v, %v), want a timeout", resp, ok)
					}
					got = append(got, p.Now())
					if resp, ok := a.CallTimeout(p, 1, kindEcho, 8, "second", sim.Millisecond); !ok || resp != "second" {
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
	r.ep[1].HandleCall(kindEcho, func(_ *sim.Proc, _ fabric.NodeID, req any) (any, int) { return req, 8 })
	r.ep[1].HandleInline(kindEchoInline, func(_ fabric.NodeID, req any) (any, int) { return req, 8 })
	a := r.ep[0]
	const k = 4
	bulk := k * r.p.RDMAChunk
	mine := sim.NewCompletion(r.eng)
	set := func(fabric.NodeID, uint64) { mine.Complete() }
	qa, qb := ConnectQPair(a, r.ep[1], QPairConfig{})
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
		{"call", 0, func(p *sim.Proc) { a.CallTimeout(p, 1, kindEcho, 8, nil, 0) }},
		{"call-timeout", 0, func(p *sim.Proc) { a.CallTimeout(p, 1, kindEcho, 8, nil, sim.Millisecond) }},
		{"inline-call", 0, func(p *sim.Proc) { a.CallTimeout(p, 1, kindEchoInline, 8, nil, 0) }},
		{"notify", 0, func(p *sim.Proc) {
			mine.Rearm()
			a.Notify(1, "notice", 8, set, 7)
			p.Await(mine)
		}},
		{"qpair", 0, func(p *sim.Proc) {
			qa.SendHW(p, 64, nil)
			qb.RecvHW(p)
		}},
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

// TestReorderedQPairMessageOutlivesItsWire: a QPair message that
// arrives ahead of its turn is parked in the reorder buffer, and its
// wire goes back on its list as soon as the delivery returns. The next
// message on that list reuses the wire; the parked message must still
// carry its own payload when its turn comes.
func TestReorderedQPairMessageOutlivesItsWire(t *testing.T) {
	r := newRig(t)
	qa, qb := ConnectQPair(r.a, r.b, QPairConfig{})
	deliver := func(seq uint64, data string) *wire[qpMsg] {
		w := r.a.qpMsgs.get()
		w.pkt = fabric.Packet{Src: 0, Dst: 1, Kind: "qpair.msg", Size: 1, Payload: w}
		w.msg = qpMsg{dstQID: qb.id, seq: seq, size: 1, data: data}
		r.b.deliver(&w.pkt)
		return w
	}
	parked := deliver(1, "b")
	if reused := deliver(7, "overwrite"); reused != parked {
		t.Fatal("test premise broken: the second delivery did not reuse the parked message's wire")
	}
	var got []any
	r.eng.Go("recv", func(p *sim.Proc) {
		qa.SendHW(p, 1, "a")
		for range 2 {
			got = append(got, qb.RecvHW(p).Data)
		}
	})
	r.eng.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("received %v, want [a b]", got)
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
		r.ep[1].HandleCall(kindEcho, func(_ *sim.Proc, _ fabric.NodeID, req any) (any, int) { return req, 8 })
		a := r.ep[0]
		qa, qb := ConnectQPair(a, r.ep[1], QPairConfig{})
		noticed := sim.NewCompletion(r.eng)
		r.eng.Go("ops", func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				a.CRMA.Fill(p, winBase, 64)
				a.CRMA.Write(p, winBase, 64)
				a.RDMA.Read(p, 1, oldBase, 2*r.p.RDMAChunk)
				a.CallTimeout(p, 1, kindEcho, 8, nil, 0)
				qa.SendHW(p, 64, nil)
				qb.RecvHW(p)
				noticed.Rearm()
				a.Notify(1, "notice", 8, func(fabric.NodeID, uint64) { noticed.Complete() }, 0)
				p.Await(noticed)
			}
		})
		r.eng.Run()
		free := 0
		for _, ep := range r.ep {
			free += len(ep.CRMA.reqs.free) + len(ep.CRMA.resps.free) + len(ep.CRMA.posts.free) +
				len(ep.RDMA.reqs.free) + len(ep.RDMA.chunks.free) + len(ep.reqWires.free) + len(ep.respWires.free) +
				len(ep.notes.free) + len(ep.qpMsgs.free) + len(ep.qpCredits.free)
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
// sends a notice to node 2, schedules a same-instant event and
// spawns a proc. An event queued at time 0 for the request's arrival
// instant chains three more events at that instant, so events queued
// before and after the arrival surround the handler. The log holds each
// logged event's instant and name, in firing order.
func serviceSlotLog(t *testing.T, register func(ep *Endpoint, h InlineHandler)) []string {
	const arrive = sim.Time(1438) // the request's arrival at node 1
	r := newLineRig(t)
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%d %s", r.eng.Now(), what)) }
	notice := func(fabric.NodeID, uint64) { note("notice") }
	register(r.ep[1], func(from fabric.NodeID, req any) (any, int) {
		note("handler")
		r.ep[1].Notify(2, "notice", 16, notice, 0)
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
		if resp, _ := r.ep[0].CallTimeout(p, 1, kindProbe, 8, "ping", 0); resp != "ping" {
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
			ep.HandleCall(kindProbe, func(_ *sim.Proc, from fabric.NodeID, req any) (any, int) { return h(from, req) })
		}},
		{"inline", func(ep *Endpoint, h InlineHandler) { ep.HandleInline(kindProbe, h) }},
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
		{"reply-wins", sim.Millisecond, func(r *lineRig, _ func(string)) { r.ep[1].HandleInline(kindProbe, echo) }, "ping true"},
		{"timeout-wins", 5 * sim.Microsecond, func(r *lineRig, _ func(string)) {
			r.ep[1].HandleInline(kindProbe, echo)
			r.ep[0].Net.SetLinkDown(0, 1, true)
		}, "<nil> false"},
		{"late-reply", 5 * sim.Microsecond, func(r *lineRig, note func(string)) {
			r.ep[1].HandleCall(kindProbe, func(p *sim.Proc, from fabric.NodeID, req any) (any, int) {
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
		r.eng.Schedule(0, func() { r.ep[0].CallFunc(1, kindProbe, 8, "ping", tc.timeout, done) })
	} else {
		r.eng.Go("caller", func(p *sim.Proc) { done(r.ep[0].CallTimeout(p, 1, kindProbe, 8, "ping", tc.timeout)) })
	}
	r.eng.Run()
	if n := r.ep[0].pending.len(); n != 0 {
		t.Fatalf("%d calls still pending", n)
	}
	return log, r.eng.Fired(), woke
}

// onList reports whether the wire is on its list.
func (w *wire[M]) onList() bool { return w.idle }

// TestDroppedWiresGoBack: while a node is down its switch drops every
// packet it touches, and the drop sink each endpoint installs hands an
// unheld dropped packet's wire back to its list. First a call into a
// crashed node: its request wire must be back on the caller's list once
// the call times out. Then the line's middle node crashes while fills,
// RDMA transfers and timed calls run to both donors, and restarts: its
// switch drops its own sends, the traffic it forwards to the far donor
// and its own deliveries (its interface sits off-chip, so a delivery
// waits out an I/O-bus crossing a crash can cut short). Every dropped
// wire must be back on its list once the engine drains, and a wire put
// back twice panics.
func TestDroppedWiresGoBack(t *testing.T) {
	r := newLineRig(t)
	r.ep[1].HandleInline(kindEcho, func(_ fabric.NodeID, req any) (any, int) { return req, 8 })
	net := r.ep[0].Net
	net.SetNodeDown(1, true)
	r.eng.Go("call", func(p *sim.Proc) {
		if _, ok := r.ep[0].CallTimeout(p, 1, kindEcho, 8, nil, 10*sim.Microsecond); ok {
			t.Error("a call into a crashed node was answered")
		}
	})
	r.eng.Run()
	if got := len(r.ep[0].reqWires.free); got != 1 {
		t.Fatalf("%d request wires back on the caller's list after the drop, want 1", got)
	}

	r = newLineRig(t)
	r.mapWindow(t)
	const win2 = winBase + winSize
	if _, err := r.ep[0].CRMA.Map(win2, winSize, 2, newBase); err != nil {
		t.Fatal(err)
	}
	r.ep[2].CRMA.Export(0, win2, winSize, newBase)
	for _, ep := range r.ep[1:] {
		ep.HandleCall(kindEcho, func(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
			p.Sleep(5 * sim.Microsecond)
			return req, 64
		})
	}
	net = r.ep[0].Net
	net.Switch(1).SetOffChip(true)
	type drop struct {
		w        interface{ onList() bool }
		src, dst fabric.NodeID
	}
	var drops []drop
	net.SetDrop(func(pkt *fabric.Packet) {
		drops = append(drops, drop{pkt.Payload.(interface{ onList() bool }), pkt.Src, pkt.Dst})
		dropped(pkt)
	})
	const crash, restart, stop = sim.Time(20 * sim.Microsecond), sim.Time(300 * sim.Microsecond), sim.Time(600 * sim.Microsecond)
	r.eng.At(crash, func() { net.SetNodeDown(1, true) })
	r.eng.At(restart, func() { net.SetNodeDown(1, false) })
	a := r.ep[0]
	ops := []func(p *sim.Proc){
		func(p *sim.Proc) { a.CRMA.Fill(p, winBase, 64) },
		func(p *sim.Proc) { a.CRMA.Fill(p, win2, 64) },
		func(p *sim.Proc) { a.RDMA.Read(p, 2, newBase, 2*r.p.RDMAChunk) },
		func(p *sim.Proc) { a.RDMA.Write(p, 1, oldBase, 2*r.p.RDMAChunk) },
		func(p *sim.Proc) { a.CallTimeout(p, 1, kindEcho, 16, nil, 20*sim.Microsecond) },
		func(p *sim.Proc) { a.CallTimeout(p, 2, kindEcho, 16, nil, 20*sim.Microsecond) },
	}
	for _, op := range ops {
		r.eng.Go("ops", func(p *sim.Proc) {
			for p.Now() < stop {
				op(p)
			}
		})
	}
	r.eng.Run()
	var own, transit, local int
	for _, d := range drops {
		switch {
		case d.src == 1:
			own++
		case d.dst == 1:
			local++
		default:
			transit++
		}
		if !d.w.onList() {
			t.Fatalf("a wire node 1 dropped (%v->%v) is not back on its list", d.src, d.dst)
		}
	}
	if own == 0 || transit == 0 || local == 0 {
		t.Fatalf("test premise broken: node 1 dropped %d of its own packets, %d in transit and %d of its deliveries; want some of each", own, transit, local)
	}
}
