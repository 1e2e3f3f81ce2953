package transport

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// slotOf is the slot an id indexes.
func slotOf(id uint64) uint64 { return id & (1<<slotBits - 1) }

// onlyID returns the id of the one operation pending in tab.
func onlyID[T any](tab *pendingTable[T]) (id uint64) {
	for id = range tab.all() {
	}
	return id
}

// TestPendingTableMatchesMap checks the table against a map over random
// add, get, remove and reset sequences: every lookup, by a live id, a
// retired one or one never issued, finds what the map finds; the ids
// ascend; and all yields exactly the map's entries.
func TestPendingTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed)
		var tab pendingTable[int]
		ref := map[uint64]*int{}
		var issued []uint64
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(100); {
			case op < 45:
				v := step
				id := tab.add(&v)
				if n := len(issued); n > 0 && id <= issued[n-1] {
					t.Fatalf("seed %d step %d: id %#x after %#x", seed, step, id, issued[n-1])
				}
				ref[id] = &v
				issued = append(issued, id)
			case op < 75 && len(issued) > 0:
				id := issued[rng.Intn(len(issued))]
				if got, want := tab.remove(id), ref[id]; got != want {
					t.Fatalf("seed %d step %d: remove(%#x) = %v, want %v", seed, step, id, got, want)
				}
				delete(ref, id)
			case op < 99:
				id := rng.Uint64()
				if len(issued) > 0 && rng.Intn(4) > 0 {
					id = issued[rng.Intn(len(issued))]
				}
				if got, want := tab.get(id), ref[id]; got != want {
					t.Fatalf("seed %d step %d: get(%#x) = %v, want %v", seed, step, id, got, want)
				}
			default:
				tab.reset()
				clear(ref)
			}
			if tab.len() != len(ref) {
				t.Fatalf("seed %d step %d: len %d, want %d", seed, step, tab.len(), len(ref))
			}
		}
		if got := maps.Collect(tab.all()); !maps.Equal(got, ref) {
			t.Fatalf("seed %d: all yields %d entries, want the map's %d", seed, len(got), len(ref))
		}
	}
}

// TestPendingTableLimits checks that the table panics rather than let
// its sequence wrap or its slot index outgrow slotBits.
func TestPendingTableLimits(t *testing.T) {
	mustPanic := func(name string, tab *pendingTable[int]) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: add did not panic", name)
			}
		}()
		tab.add(new(int))
	}
	last := pendingTable[int]{seq: 1<<(64-slotBits) - 1}
	if id := last.add(new(int)); id != ^uint64(0)&^(1<<slotBits-1) {
		t.Fatalf("last sequence's id = %#x", id)
	}
	mustPanic("sequence exhausted", &last)
	full := pendingTable[int]{slots: make([]pendingSlot[int], 1<<slotBits)}
	mustPanic("slots exhausted", &full)
}

// tapResponses wraps node 0's delivery: every packet is delivered as
// before, and after an answer to one of node 0's operations (a CRMA
// response, an RDMA chunk or ack, an RPC reply) seen is called with
// the answer's id.
func tapResponses(r *lineRig, seen func(id uint64)) {
	ep := r.ep[0]
	ep.Net.SetDelivery(0, func(pkt *fabric.Packet) {
		var id uint64
		answer := true
		switch w := pkt.Payload.(type) {
		case *wire[crmaResp]:
			id = w.msg.id
		case *wire[rdmaChunk]:
			id = w.msg.id
		case *wire[rpcResp]:
			id = w.msg.id
		default:
			answer = false
		}
		ep.deliver(pkt)
		if answer {
			seen(id)
		}
	})
}

// staleCheck watches node 0's answers for one that names a retired
// operation, stale, whose slot a newer operation, fresh, now holds.
type staleCheck struct {
	stale, fresh uint64
	landed       bool // the stale answer arrived while fresh was pending
}

// seen is tapResponses' callback; waiting reports whether the
// operation filed under an id still waits for its answer.
func (s *staleCheck) seen(t *testing.T, id uint64, waiting func(uint64) bool) {
	if s.fresh == 0 || id != s.stale {
		return
	}
	if slotOf(s.stale) != slotOf(s.fresh) || s.stale == s.fresh {
		t.Errorf("test premise broken: stale id %#x and the newer operation's %#x do not share a slot", s.stale, s.fresh)
	}
	s.landed = true
	if !waiting(s.fresh) {
		t.Errorf("the stale answer %#x ended the newer operation %#x that holds its slot", s.stale, s.fresh)
	}
}

// TestStaleAnswerSkipsReusedSlot delivers, on each channel, an answer
// whose id names a slot that a newer operation now holds: a CRMA
// replay's duplicate response, a CRMA response to a fill that
// CRMA.Reset wiped, an RPC reply that lands after its watchdog, and an
// RDMA chunk for a finished read. Each must be dropped, leaving the
// newer operation pending, and the newer operation must complete at its
// own answer's instant. A table that matched on the slot alone would
// complete it early.
func TestStaleAnswerSkipsReusedSlot(t *testing.T) {
	t.Run("crma-duplicate-after-replay", func(t *testing.T) {
		r := newLineRig(t)
		e := r.mapWindow(t)
		c := r.ep[0].CRMA
		var s staleCheck
		var got []sim.Time
		tapResponses(r, func(id uint64) {
			s.seen(t, id, func(id uint64) bool { return c.pending.get(id) != nil })
		})
		r.eng.Go("cpu", func(p *sim.Proc) {
			c.Fill(p, winBase, 64)
			got = append(got, p.Now())
			r.eng.Schedule(0, func() { s.fresh = onlyID(&c.pending) })
			c.Fill(p, winBase+64, 64)
			got = append(got, p.Now())
		})
		// Retarget and replay while the old donor's response is on the
		// wire: it completes the first fill, and the replay's response
		// is the stale answer (as in TestTransportRecordReuse).
		rtt := 2*r.p.HopLatency() + r.p.Serialize(16) + r.p.Serialize(64) + 3*r.p.CRMALogic + r.p.DRAMLat
		r.eng.At(sim.Time(0).Add(rtt-r.p.CRMALogic-r.p.HopLatency()/2), func() {
			s.stale = onlyID(&c.pending)
			c.Retarget(e, 2, newBase)
			c.ReplayWindow(winBase, winSize)
		})
		r.eng.Run()
		if !s.landed {
			t.Fatal("test premise broken: the replay's response did not land while the second fill was pending")
		}
		if want := []sim.Time{3239, 9457}; !slices.Equal(got, want) {
			t.Fatalf("fills completed at %v, want %v", got, want)
		}
	})
	t.Run("crma-response-after-reset", func(t *testing.T) {
		// run fills a line from a fresh proc 1 µs in; with wipe, a first
		// fill is on the wire then and the requester reboots
		// (CRMA.Reset) just before the second fill is issued. The wiped
		// fill's waiter stays parked for good.
		run := func(wipe bool) sim.Time {
			r := newLineRig(t)
			r.mapWindow(t)
			c := r.ep[0].CRMA
			var s staleCheck
			tapResponses(r, func(id uint64) {
				s.seen(t, id, func(id uint64) bool { return c.pending.get(id) != nil })
			})
			if wipe {
				r.eng.Go("wiped", func(p *sim.Proc) {
					c.Fill(p, winBase, 64)
					t.Error("a fill wiped by CRMA.Reset completed")
				})
			}
			var got sim.Time
			r.eng.At(sim.Time(sim.Microsecond), func() {
				if wipe {
					s.stale = onlyID(&c.pending)
					c.Reset()
					if _, err := c.Map(winBase, winSize, 1, oldBase); err != nil {
						t.Error(err)
					}
				}
				r.eng.Go("fresh", func(p *sim.Proc) {
					r.eng.Schedule(0, func() { s.fresh = onlyID(&c.pending) })
					c.Fill(p, winBase+64, 64)
					got = p.Now()
				})
			})
			r.eng.Run()
			if wipe {
				if !s.landed {
					t.Fatal("test premise broken: the wiped fill's response did not land while the second fill was pending")
				}
				if n := r.eng.LiveProcs(); n != 1 {
					t.Fatalf("%d procs parked, want the wiped fill's waiter", n)
				}
			}
			return got
		}
		if got, want := run(true), run(false); got != want {
			t.Fatalf("after a reset, the fill completed at %v, want %v", got, want)
		}
	})
	t.Run("rpc-reply-after-watchdog", func(t *testing.T) {
		r := newLineRig(t)
		r.ep[1].HandleCall(kindEcho, func(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
			p.Sleep(10 * sim.Microsecond)
			return req, 8
		})
		a := r.ep[0]
		var s staleCheck
		var got []sim.Time
		tapResponses(r, func(id uint64) {
			s.seen(t, id, func(id uint64) bool {
				call := a.pending.get(id)
				return call != nil && !call.done.Done()
			})
		})
		r.eng.Go("caller", func(p *sim.Proc) {
			r.eng.Schedule(0, func() { s.stale = onlyID(&a.pending) })
			if _, ok := a.CallTimeout(p, 1, kindEcho, 8, "first", 5*sim.Microsecond); ok {
				t.Error("first call answered; want a timeout")
			}
			got = append(got, p.Now())
			r.eng.Schedule(0, func() { s.fresh = onlyID(&a.pending) })
			if resp, ok := a.CallTimeout(p, 1, kindEcho, 8, "second", sim.Millisecond); !ok || resp != "second" {
				t.Errorf("second call = (%v, %v), want (second, true)", resp, ok)
			}
			got = append(got, p.Now())
		})
		r.eng.Run()
		if !s.landed {
			t.Fatal("test premise broken: the first call's reply did not land while the second was pending")
		}
		if want := []sim.Time{5000, 17876}; !slices.Equal(got, want) {
			t.Fatalf("calls returned at %v, want %v", got, want)
		}
	})
	t.Run("rdma-chunk-for-finished-read", func(t *testing.T) {
		// run makes two one-chunk reads; with inject, node 1 sends a
		// header-only chunk carrying the first read's id once the second
		// is posted.
		run := func(inject bool) []sim.Time {
			r := newLineRig(t)
			rdma := r.ep[0].RDMA
			var s staleCheck
			var got []sim.Time
			tapResponses(r, func(id uint64) {
				s.seen(t, id, func(id uint64) bool { return rdma.pending.get(id) != nil })
			})
			r.eng.Go("reader", func(p *sim.Proc) {
				r.eng.Schedule(0, func() { s.stale = onlyID(&rdma.pending) })
				rdma.Read(p, 1, oldBase, r.p.RDMAChunk)
				got = append(got, p.Now())
				r.eng.Schedule(0, func() {
					s.fresh = onlyID(&rdma.pending)
					if inject {
						donor := r.ep[1]
						send(&donor.RDMA.chunks, donor, 0, "rdma.data", 16,
							rdmaChunk{id: s.stale, last: true, addr: oldBase, resp: true})
					}
				})
				rdma.Read(p, 1, oldBase, r.p.RDMAChunk)
				got = append(got, p.Now())
			})
			r.eng.Run()
			if inject && !s.landed {
				t.Fatal("test premise broken: the injected chunk did not land while the second read was pending")
			}
			return got
		}
		want := run(false)
		if got := run(true); !slices.Equal(got, want) {
			t.Fatalf("with a stale chunk, reads completed at %v, want %v", got, want)
		}
	})
}
