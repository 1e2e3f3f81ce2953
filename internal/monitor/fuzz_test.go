package monitor

import (
	"encoding/binary"
	"maps"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// reqOpSize is the bytes one request takes from FuzzAllocRequest's
// stream.
const reqOpSize = 12

// maxReqOps bounds the requests one input sends, so every input runs in
// a few milliseconds of host time.
const maxReqOps = 64

// hostileReq decodes one alloc request from op (reqOpSize bytes): a
// resource in [-2, 5], three of which the MN brokers; an amount of 0,
// unaligned, 4 MiB-aligned or near 2^64; a scope and a class each one
// past either end of their range; the latency and tenant tags; and a
// 4 MiB-aligned window drawn from 2^16, so recipients reuse windows.
func hostileReq(op []byte) AllocReq {
	x := binary.LittleEndian.Uint32(op[3:7])
	req := AllocReq{
		Res:        Resource(int(op[1]%8) - 2),
		Scope:      AllocScope(int(op[7]%5) - 1),
		WindowBase: uint64(binary.LittleEndian.Uint16(op[10:12])) << 22,
	}
	switch op[2] % 4 {
	case 1:
		req.Size = uint64(x)
	case 2:
		req.Size = uint64(x%16+1) << 22
	case 3:
		req.Size = ^uint64(0) - uint64(x)
	}
	req.Class = tenancy.Class(op[8] % (tenancy.NumClasses + 2))
	req.Latency, req.Tenant = op[9]&1 != 0, uint64(op[9]>>1)
	return req
}

// FuzzAllocRequest drives the MN's request path with hostile requests:
// fuzzer-chosen mn.alloc and mn.free calls from two recipients, nodes 3
// and 5, on the 8-node mesh, with admission on and devices on two
// donors. Each request takes reqOpSize bytes: op[0]'s low bit picks the
// recipient and its next bit a free. An alloc is hostileReq's; a free
// names an id the recipient was granted when op[1] < 192 and it has
// one, else the 32-bit id in op[3:7], so frees repeat and name unknown
// ids. Each recipient sends its requests in order, so the two
// interleave at the MN, then frees every id it was granted.
// Every call must be answered and nothing may panic; a memory request
// of no bytes or of bytes that are not whole pages must leave every RRT
// row's idle bytes as they were; at the end the RAT must be empty and
// each donor's count of units on loan must match it.
// The seed corpus under testdata/fuzz/FuzzAllocRequest covers every
// resource, amount, scope and class regime, malformed memory requests
// followed by a valid one, and unknown and repeated frees; plain go
// test replays it.
func FuzzAllocRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := newCluster(t, 64<<20)
		c.agents[2].Devices[DevAccelerator] = 2
		c.agents[6].Devices[DevNIC] = 1
		c.mn.Admission = tenancy.Default()
		c.nodes[0].EP.HandleCall(kindAlloc, func(p *sim.Proc, from fabric.NodeID, req any) (any, int) {
			r := &req.(*AllocCall).Req
			if r.Res != Memory || r.Size != 0 && r.Size%uint64(c.p.PageBytes) == 0 {
				return c.mn.onAlloc(p, from, req)
			}
			idle := func() map[fabric.NodeID]uint64 {
				m := map[fabric.NodeID]uint64{}
				for id, row := range c.mn.rrt {
					m[id] = row.IdleBytes
				}
				return m
			}
			before, declined := idle(), c.mn.Stats.Get("alloc.malformed")
			resp, n := c.mn.onAlloc(p, from, req)
			if after := idle(); !maps.Equal(after, before) {
				t.Errorf("node %v's malformed request for %d bytes moved the RRT's idle bytes from %v to %v", from, r.Size, before, after)
			}
			if got := c.mn.Stats.Get("alloc.malformed"); got != declined+1 {
				t.Errorf("alloc.malformed went from %d to %d over a malformed request", declined, got)
			}
			return resp, n
		})
		c.eng.RunFor(10 * sim.Millisecond) // every agent has beaten
		var script [2][][]byte
		for n := 0; len(ops) > 0 && n < maxReqOps; n++ {
			var op [reqOpSize]byte
			ops = ops[copy(op[:], ops):]
			script[op[0]&1] = append(script[op[0]&1], op[:])
		}
		var dones [2]*sim.Completion
		for who, from := range []fabric.NodeID{3, 5} {
			ep := c.nodes[from].EP
			dones[who] = c.eng.Go("recipient", func(p *sim.Proc) {
				var granted []int
				free := func(id int) { Free(p, ep, 0, &FreeReq{AllocID: id}) }
				for _, op := range script[who] {
					if op[0]&2 != 0 {
						id := int(int32(binary.LittleEndian.Uint32(op[3:7])))
						if len(granted) > 0 && op[1] < 192 {
							id = granted[int(op[1])%len(granted)]
						}
						free(id)
						continue
					}
					call := &AllocCall{Req: hostileReq(op)}
					if !Alloc(p, ep, 0, call, 0) {
						t.Errorf("node %v: %+v went unanswered", from, call.Req)
						return
					}
					if call.Resp.OK {
						granted = append(granted, call.Resp.AllocID)
					}
				}
				for _, id := range granted {
					free(id)
				}
			})
		}
		for end := c.eng.Now().Add(120 * sim.Second); !(dones[0].Done() && dones[1].Done()); {
			if c.eng.Now() > end || !c.eng.Step() {
				t.Fatalf("a recipient is still waiting for an answer at %v", c.eng.Now())
			}
		}
		if rows := c.mn.Allocations(); len(rows) != 0 {
			t.Errorf("RAT holds %d rows after every grant was freed: %+v", len(rows), rows)
		}
		if err := c.mn.AuditDevices(); err != nil {
			t.Error(err)
		}
	})
}
