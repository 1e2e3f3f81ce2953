package transport

import (
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// crmaReq is a cacheline fetch or store crossing the fabric.
type crmaReq struct {
	id    uint64
	addr  uint64 // requester-local address; the donor checks it against its exports
	size  int
	write bool
}

// wireSize is the request's packet size: address and control, plus the
// data a store carries.
func (m *crmaReq) wireSize() int {
	if m.write {
		return 16 + m.size
	}
	return 16
}

// crmaResp completes a crmaReq at the requester.
type crmaResp struct {
	id uint64
}

// crmaPosted is a fire-and-forget remote store, used by the
// inter-channel collaboration mechanism to deposit flow-control credits
// directly into donor memory (§5.1.3, Fig. 9).
type crmaPosted struct {
	addr uint64
	size int
	note any // optional payload interpreted by a registered observer
}

// RAMTEntry is one row of the Remote Address Mapping Table (Fig. 8):
// local window base/size mapped onto a remote node's physical region.
type RAMTEntry struct {
	LocalBase  uint64
	Size       uint64
	Node       fabric.NodeID
	RemoteBase uint64

	// Dead marks a requester-side window whose lease was revoked with no
	// replacement donor (the donor died and re-placement failed). The
	// window stays mapped so accesses do not trap, but they complete
	// immediately with poison data; CRMAStats.DeadAccesses counts them so
	// callers can report the failure honestly.
	Dead bool
}

// contains reports whether addr falls inside the entry's local window.
func (e *RAMTEntry) contains(addr uint64) bool {
	return addr >= e.LocalBase && addr < e.LocalBase+e.Size
}

// CRMAStats counts CRMA channel activity.
type CRMAStats struct {
	Fills        int64
	Writes       int64
	Served       int64 // requests serviced for remote nodes (donor role)
	Replayed     int64 // in-flight accesses re-issued after a window retarget
	DeadAccesses int64 // accesses to a revoked (dead) window, completed with poison
}

// CRMA is the cacheline remote memory access channel: once a mapping is
// installed, misses to the mapped window are captured in hardware,
// packetized, and serviced by the donor with no software on the critical
// path.
type CRMA struct {
	ep      *Endpoint
	ramt    []*RAMTEntry // requester-side windows
	exports []*RAMTEntry // donor-side reverse mappings (remote node's window -> local)
	// unexported holds export entries Unmap took out of exports, for
	// Export to reuse.
	unexported []*RAMTEntry
	pending    pendingTable[crmaAccess]
	accesses   freeList[crmaAccess]
	replies    freeList[crmaReply]
	reqs       wireList[crmaReq]
	resps      wireList[crmaResp]
	posts      wireList[crmaPosted]

	Stats CRMAStats
}

// crmaAccess is one outstanding fill or store at the requester. It keeps
// its request so the access can be re-issued against a new donor if the
// window is retargeted while it is in flight, and its RAMT entry, whose
// donor it reads when the request leaves. done is the completion the
// access fires: the caller's under FillAsync and WriteAsync (nil when
// nobody waits), or own, which the record keeps for its whole life and
// Fill and Write re-arm for each access. Its life ends in its
// completion event.
type crmaAccess struct {
	c      *CRMA
	e      *RAMTEntry
	req    crmaReq
	done   *sim.Completion
	own    *sim.Completion
	onSend func()
	onDone func()
}

// send injects the access's request once the CRMA logic has captured and
// packetized it.
func (a *crmaAccess) send() { send(&a.c.reqs, a.c.ep, a.e.Node, "crma.req", a.req.wireSize(), a.req) }

// complete hands the data to the core, after the CRMA logic has
// de-packetized the response.
func (a *crmaAccess) complete() {
	if a.done != nil {
		a.done.Complete()
	}
	a.e, a.done = nil, nil
	a.c.accesses.put(a)
}

// crmaReply is the donor's response to one request, waiting out the
// memory service time. Its life ends when it is sent.
type crmaReply struct {
	c      *CRMA
	to     fabric.NodeID
	size   int
	resp   crmaResp
	onSend func()
}

func (r *crmaReply) send() {
	send(&r.c.resps, r.c.ep, r.to, "crma.resp", r.size, r.resp)
	r.c.replies.put(r)
}

func newCRMA(ep *Endpoint) *CRMA {
	c := &CRMA{ep: ep}
	c.accesses.fresh = func() *crmaAccess {
		a := &crmaAccess{c: c, own: sim.NewCompletion(ep.Eng)}
		a.onSend, a.onDone = a.send, a.complete
		return a
	}
	c.replies.fresh = func() *crmaReply {
		r := &crmaReply{c: c}
		r.onSend = r.send
		return r
	}
	return c
}

// Map installs a requester-side RAMT entry: the local window
// [localBase, localBase+size) resolves to donor's [remoteBase, ...).
// The matching donor-side entry must be installed with Export.
func (c *CRMA) Map(localBase, size uint64, donor fabric.NodeID, remoteBase uint64) (*RAMTEntry, error) {
	e := &RAMTEntry{LocalBase: localBase, Size: size, Node: donor, RemoteBase: remoteBase}
	if err := c.MapEntry(e); err != nil {
		return nil, err
	}
	return e, nil
}

// MapEntry is Map for an entry the caller owns, such as one a lease
// holds by value: the table keeps e itself until Unmap, and an access
// in flight keeps it after that, so the caller must neither free nor
// reuse it.
func (c *CRMA) MapEntry(e *RAMTEntry) error {
	if e.Size == 0 {
		return fmt.Errorf("crma: zero-size mapping")
	}
	for _, o := range c.ramt {
		if e.LocalBase < o.LocalBase+o.Size && o.LocalBase < e.LocalBase+e.Size {
			return fmt.Errorf("crma: window [%#x,%#x) overlaps existing entry", e.LocalBase, e.LocalBase+e.Size)
		}
	}
	c.ramt = append(c.ramt, e)
	return nil
}

// Export installs the donor-side mapping that accepts requests from a
// recipient for local region [localBase, localBase+size). The entry
// comes from the channel's list of unexported entries: the donor reads
// an export only while it checks a request against it, so Unmap hands
// it back and a later Export reuses it.
func (c *CRMA) Export(recipient fabric.NodeID, recipientBase, size, localBase uint64) *RAMTEntry {
	var e *RAMTEntry
	if n := len(c.unexported); n > 0 {
		e = c.unexported[n-1]
		c.unexported = c.unexported[:n-1]
	} else {
		e = new(RAMTEntry)
	}
	*e = RAMTEntry{LocalBase: recipientBase, Size: size, Node: recipient, RemoteBase: localBase}
	c.exports = append(c.exports, e)
	return e
}

// Unmap removes an entry Map or Export installed from the table that
// holds it (stop-sharing); an export goes back on the list Export takes
// from, so its caller must not use it again. The other entries keep
// their order, so every first-match lookup finds the entry it found
// before.
func (c *CRMA) Unmap(e *RAMTEntry) {
	if i := slices.Index(c.ramt, e); i >= 0 {
		c.ramt = slices.Delete(c.ramt, i, i+1)
	} else if i := slices.Index(c.exports, e); i >= 0 {
		c.exports = slices.Delete(c.exports, i, i+1)
		c.unexported = append(c.unexported, e)
	}
}

// Reset wipes the channel's soft state — every mapping, every export,
// every pending access — modeling the node rebooting: the RAMT is
// hardware state that does not survive power loss. Completions of wiped
// pending accesses never fire (their waiters died with the node), and
// no late answer to one completes anything: ids are never reused.
func (c *CRMA) Reset() {
	c.ramt = nil
	c.exports = nil
	c.pending.reset()
}

// pendingInWindow collects the ids of in-flight accesses whose address
// falls inside [base, base+size), ascending, which is issue order — the
// deterministic order both recovery paths (replay and kill) walk them
// in.
func (c *CRMA) pendingInWindow(base, size uint64) []uint64 {
	ids := make([]uint64, 0, c.pending.len())
	for id, a := range c.pending.all() {
		if a.req.addr >= base && a.req.addr < base+size {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// Retarget points a requester-side window at a new donor region — the
// transport half of lease failover. In-flight accesses are NOT replayed
// here; call ReplayWindow once the new donor's export is known live.
func (c *CRMA) Retarget(e *RAMTEntry, donor fabric.NodeID, remoteBase uint64) {
	e.Node = donor
	e.RemoteBase = remoteBase
	e.Dead = false
}

// ReplayWindow re-issues every pending access that falls inside the
// window [base, base+size) against the window's current donor. Requests
// lost to a dead donor complete when their replay's response arrives; a
// request the old donor did answer (response still in flight) is
// completed by whichever response lands first, and the duplicate is
// dropped by id. Iteration is in ascending request id so replays hit the
// wire in a deterministic order. A replay carries its own copy of the
// request: the original response may complete the access, and recycle
// its record, before the replay leaves.
func (c *CRMA) ReplayWindow(base, size uint64) int {
	ids := c.pendingInWindow(base, size)
	replayed := 0
	for _, id := range ids {
		req := c.pending.get(id).req
		e, ok := c.Lookup(req.addr)
		if !ok || e.Dead {
			continue
		}
		c.Stats.Replayed++
		replayed++
		node := e.Node
		c.ep.Eng.Schedule(c.ep.P.CRMALogic, func() {
			send(&c.reqs, c.ep, node, "crma.req", req.wireSize(), req)
		})
	}
	return replayed
}

// KillWindow marks a requester-side window revoked-without-replacement:
// the entry goes dead (future accesses complete instantly as poison, see
// RAMTEntry.Dead) and every pending access inside it is completed so no
// process stays parked on a donor that will never answer.
func (c *CRMA) KillWindow(base, size uint64) {
	for _, e := range c.ramt {
		if e.LocalBase == base && e.Size == size {
			e.Dead = true
		}
	}
	for _, id := range c.pendingInWindow(base, size) {
		a := c.pending.remove(id)
		c.Stats.DeadAccesses++
		if a.done != nil {
			a.done.Complete()
		}
	}
}

// Lookup finds the RAMT entry covering addr, if any — the hardware hit
// check of Fig. 8.
func (c *CRMA) Lookup(addr uint64) (*RAMTEntry, bool) {
	for _, e := range c.ramt {
		if e.contains(addr) {
			return e, true
		}
	}
	return nil, false
}

// FillAsync issues a remote read of size bytes at addr (which must be
// covered by a mapping) and completes done when the data arrives. This
// is the hardware path a cache miss takes. done belongs to the caller,
// who passes it incomplete and leaves it alone until it fires; nil
// means nobody waits.
func (c *CRMA) FillAsync(addr uint64, size int, done *sim.Completion) {
	c.access(addr, size, false, done)
}

// WriteAsync issues a remote store (e.g. a dirty writeback) and
// completes done, as FillAsync does, when the donor acknowledges it; a
// posted writeback passes nil.
func (c *CRMA) WriteAsync(addr uint64, size int, done *sim.Completion) {
	c.access(addr, size, true, done)
}

// Fill blocks the calling process until a remote read completes.
func (c *CRMA) Fill(p *sim.Proc, addr uint64, size int) { c.await(p, addr, size, false) }

// Write blocks the calling process until a remote store is acknowledged.
func (c *CRMA) Write(p *sim.Proc, addr uint64, size int) { c.await(p, addr, size, true) }

// await is the blocking access: p waits on the completion the access's
// record owns. The record goes back to the free list, completion and
// all, in the event that completes it, before p resumes; that is safe
// because a waiter never touches its completion after it resumes.
func (c *CRMA) await(p *sim.Proc, addr uint64, size int, write bool) {
	if a := c.access(addr, size, write, nil); a != nil {
		a.own.Rearm()
		a.done = a.own
		p.Await(a.own)
	}
}

// access issues one fill or store that completes done, and returns its
// record. An access to a dead window completes done at once and returns
// nil.
func (c *CRMA) access(addr uint64, size int, write bool, done *sim.Completion) *crmaAccess {
	e, ok := c.Lookup(addr)
	if !ok {
		panic(fmt.Sprintf("crma: node %v: access to unmapped address %#x", c.ep.ID, addr))
	}
	if e.Dead {
		// Revoked window: complete instantly with poison rather than trap,
		// and count the failure for the caller's accounting.
		c.Stats.DeadAccesses++
		if done != nil {
			done.Complete()
		}
		return nil
	}
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Fills++
	}
	a := c.accesses.get()
	a.e, a.done = e, done
	a.req = crmaReq{id: c.pending.add(a), addr: addr, size: size, write: write}
	// Capture + packetize in the CRMA logic, then inject.
	c.ep.Eng.Schedule(c.ep.P.CRMALogic, a.onSend)
	return a
}

// PostWrite sends a fire-and-forget remote store with an attached note.
// The donor's posted observer (if any) sees the note on arrival. Posted
// writes are overwriteable and carry no ordering guarantee relative to
// other channels — exactly the semantics the collaboration design needs
// for credit updates.
func (c *CRMA) PostWrite(dst fabric.NodeID, addr uint64, size int, note any) {
	m := crmaPosted{addr: addr, size: size, note: note}
	c.ep.Eng.Schedule(c.ep.P.CRMALogic, func() {
		send(&c.posts, c.ep, dst, "crma.post", 16+size, m)
	})
}

// lookupExport finds the donor-side entry matching a requester address.
func (c *CRMA) lookupExport(from fabric.NodeID, addr uint64) (*RAMTEntry, bool) {
	for _, e := range c.exports {
		if e.Node == from && e.contains(addr) {
			return e, true
		}
	}
	return nil, false
}

// handleReq services a remote fill or store at the donor: check the
// export table, access memory, respond (for reads) after the memory
// service time.
func (c *CRMA) handleReq(pkt *fabric.Packet, m *crmaReq) {
	if _, ok := c.lookupExport(pkt.Src, m.addr); !ok {
		// A rebooted donor forgot its exports: drop the request (the
		// requester's lease will be re-placed by the Monitor Node and the
		// access replayed) instead of crashing the simulation.
		return
	}
	c.Stats.Served++
	// The donor serves from DRAM, not its caches: the paper's
	// single-subscriber model gives the region to exactly one owner, and
	// the donor's own accesses to it have been hot-removed.
	svc := c.ep.P.DRAMAccess(m.size)
	r := c.replies.get()
	r.to, r.resp = pkt.Src, crmaResp{id: m.id}
	r.size = m.size // read response carries data
	if m.write {
		r.size = 0 // store ack is header-only
	}
	c.ep.Eng.Schedule(c.ep.P.CRMALogic+svc, r.onSend)
}

// handleResp completes the requester-side pending access; an answer to
// one that is no longer pending is dropped.
func (c *CRMA) handleResp(m *crmaResp) {
	a := c.pending.remove(m.id)
	if a == nil {
		return
	}
	// De-packetize in the CRMA logic before handing data to the core.
	c.ep.Eng.Schedule(c.ep.P.CRMALogic, a.onDone)
}

// handlePosted applies a posted write at the receiver. Credit notes go
// straight to their queue pair's hardware state machine — no software on
// the path, which is the point of the collaboration (Fig. 9).
func (c *CRMA) handlePosted(m *crmaPosted) {
	note := m.note
	c.ep.Eng.Schedule(c.ep.P.CRMALogic, func() {
		if cr, ok := note.(*qpCredit); ok {
			if qp, live := c.ep.qpairs[cr.dstQID]; live {
				qp.addCredits(cr.credits)
			}
		}
	})
}
