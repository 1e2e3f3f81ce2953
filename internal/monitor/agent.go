package monitor

import (
	"repro/internal/fabric"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Agent is the per-node daemon: it periodically reports idle resources
// and link health to the MN (serving as the MN's heartbeat), and it
// services the donor side of memory sharing — hot-remove, CRMA export,
// and the reverse on release (Fig. 2).
type Agent struct {
	EP     *transport.Endpoint
	MemMgr *memsys.MemManager
	Net    *fabric.Network

	// Devices advertises shareable device units (accelerators, NICs).
	// Each beat carries a copy, so the MN reads the counts as of its
	// send.
	Devices Units

	// Interval is the heartbeat period.
	Interval sim.Dur

	// Telemetry enables the windowed link-utilization plane: each
	// heartbeat's link probes then carry the utilization of the window
	// since the previous beat, sampled from both directions of every
	// adjacent link. Off by default — the probe wire format is unchanged
	// when disabled.
	Telemetry bool

	mn      fabric.NodeID
	stopped bool

	// crashed models the node being down: the daemon skips beats (and the
	// fabric drops anything it would have sent anyway). muted models
	// heartbeat loss alone — the node is healthy but its reports are not
	// getting through, the false-positive case the MN's incarnation check
	// exists to disambiguate.
	crashed bool
	muted   bool

	// incarnation counts reboots; it rides every heartbeat so the MN can
	// detect a crash-and-return faster than the heartbeat timeout.
	incarnation int64

	exports map[windowKey]*transport.RAMTEntry // donor-side export bookkeeping

	// marks holds each adjacent link direction's last telemetry sample,
	// keyed by neighbor, so probes report per-window utilization.
	marks map[fabric.NodeID]*linkMarks

	// spares holds pre-plugged regions (base -> size): memory already
	// hot-removed from the local OS but not yet exported to anyone,
	// parked so a failover can attach it without the hot-plug latency.
	spares map[uint64]uint64

	// report is the heartbeat the last beat sent, with its probe slice
	// sized to the node's neighbors; the next beat refills it once the
	// MN has folded it (see beat). nil until the first beat.
	report *Heartbeat

	// The beat chain's cached handlers.
	onTick func()
	onAck  func(resp any, ok bool)

	// Stats counts agent activity.
	Stats Counters
}

// linkMarks is one neighbor's pair of directional telemetry samples.
type linkMarks struct {
	out, in fabric.LinkSample
}

// NewAgent attaches an agent to a node's endpoint and memory manager.
func NewAgent(ep *transport.Endpoint, mm *memsys.MemManager, net *fabric.Network) *Agent {
	a := &Agent{
		EP:       ep,
		MemMgr:   mm,
		Net:      net,
		Interval: 500 * sim.Millisecond,
		exports:  make(map[windowKey]*transport.RAMTEntry),
		marks:    make(map[fabric.NodeID]*linkMarks),
		spares:   make(map[uint64]uint64),
	}
	a.onTick, a.onAck = a.tick, a.acked
	ep.HandleCall(kindHotRemove, a.onHotRemove)
	ep.HandleCall(kindHotReturn, a.onHotReturn)
	ep.HandleInline(kindRelocate, a.onRelocate)
	ep.HandleInline(kindRevoke, a.onRevoke)
	ep.HandleCall(kindSpareCarve, a.onSpareCarve)
	ep.HandleInline(kindSpareAttach, a.onSpareAttach)
	return a
}

// Start begins heartbeating to the MN at mnID. Each node's phase is
// staggered by its id so reports do not stampede the MN.
//
// The beat loop is a chain of events, not a proc: a start event in the
// slot where a proc would have started, then one tick per period, the
// first at (ID+1) ms, and for each beat a continuation in the slot where
// the proc would have resumed from its call. Each tick and continuation
// schedules the next event exactly where the proc would have slept, so
// every event keeps its (time, seq), and the engine's LiveProcs does not
// count agents.
func (a *Agent) Start(mnID fabric.NodeID) {
	a.mn = mnID
	a.EP.Eng.Schedule(0, a.start)
}

// start is the chain's first event: it waits out the node's phase.
func (a *Agent) start() {
	a.EP.Eng.Schedule(sim.Dur(int64(a.EP.ID)+1)*sim.Millisecond, a.onTick)
}

// tick is one period of the beat loop. A stopped agent ends the chain
// here; a crashed or muted one skips its beat and waits out the period;
// any other sends a beat, whose continuation (acked) goes on.
func (a *Agent) tick() {
	switch {
	case a.stopped:
	case a.crashed || a.muted:
		a.EP.Eng.Schedule(a.Interval, a.onTick)
	default:
		a.beat()
	}
}

// Stop ends the heartbeat loop after the current period.
func (a *Agent) Stop() { a.stopped = true }

// Crash models the node going down: the daemon stops beating until
// Restart. The fabric-side half (dropping the node's packets) is the
// chaos injector's job; Crash only covers the software that dies.
func (a *Agent) Crash() { a.crashed = true }

// Restart models the node rebooting: the transport channel's soft state
// and the OS memory map reset (donations and leases do not survive a
// power cycle), the incarnation counter ticks so the MN learns about the
// reboot even if the outage was shorter than its heartbeat timeout, and
// beating resumes. Only the agent reads its export and spare maps, so
// they are cleared in place.
func (a *Agent) Restart() {
	a.incarnation++
	clear(a.exports)
	clear(a.spares) // parked spares die with the power cycle
	a.EP.CRMA.Reset()
	a.MemMgr.Reboot()
	a.crashed = false
	a.Stats.add(statReboots, 1)
}

// Mute suppresses (or restores) heartbeats without touching node state —
// the pure heartbeat-loss fault. A muted agent still services donor
// requests; the MN may falsely declare it dead and re-place its leases,
// which is exactly the scenario the orphan-return path cleans up.
func (a *Agent) Mute(muted bool) { a.muted = muted }

// beat sends one heartbeat: idle memory, device counts, link probes.
// It refills the report the last beat sent once the MN has folded it:
// the fold copies what the MN keeps, and the fabric delivers a packet at
// most once, so nothing reads the report again. An acked beat was
// folded before its ack left, and one a crashed switch dropped is marked
// the same way (Heartbeat.Unread); a beat whose wait timed out may still
// be in flight, and then the next beat takes a fresh report.
func (a *Agent) beat() {
	hb := a.report
	if hb == nil || !hb.folded {
		hb = &Heartbeat{Node: a.EP.ID, Links: make([]LinkProbe, 0, len(a.Net.Topo.NeighborsOf(a.EP.ID)))}
		a.report = hb
	}
	hb.folded = false
	hb.IdleBytes = a.MemMgr.Idle()
	hb.Devices = a.Devices
	hb.Links = a.probeLinks(hb.Links[:0])
	hb.Incarnation = a.incarnation
	// Bounded wait: a beat whose ack is lost (down link on the MN path,
	// or our own node dying mid-flight) must not wedge the daemon.
	a.EP.CallFunc(a.mn, kindHeartbeat, 64, hb, a.Interval, a.onAck)
}

// acked is a beat's continuation, once its ack lands or its wait times
// out, and it schedules the next tick.
func (a *Agent) acked(_ any, ok bool) {
	if !ok {
		a.Stats.add(statBeatsLost, 1)
	}
	a.Stats.add(statBeats, 1)
	a.EP.Eng.Schedule(a.Interval, a.onTick)
}

// probeLinks tests this node's fabric ports (the daemon "tests and
// reports the status of the Venice fabric links on every heartbeat"),
// appending one probe per neighbor to probes. With Telemetry on, each
// probe additionally samples both directions of the link and reports
// the busier one's utilization over the window since the previous beat.
func (a *Agent) probeLinks(probes []LinkProbe) []LinkProbe {
	for _, nb := range a.Net.Topo.NeighborsOf(a.EP.ID) {
		pr := LinkProbe{Peer: nb, Up: true}
		out := a.Net.Link(a.EP.ID, nb)
		in := a.Net.Link(nb, a.EP.ID)
		if out != nil && out.Down() {
			pr.Up = false
		}
		if in != nil && in.Down() {
			pr.Up = false
		}
		if a.Telemetry && out != nil && in != nil {
			mk, ok := a.marks[nb]
			if !ok {
				mk = &linkMarks{}
				a.marks[nb] = mk
			}
			u := out.UtilizationSince(mk.out)
			if ui := in.UtilizationSince(mk.in); ui > u {
				u = ui
			}
			pr.Util, pr.HasUtil = u, true
			mk.out, mk.in = out.Sample(), in.Sample()
		}
		probes = append(probes, pr)
	}
	return probes
}

// onHotRemove services the MN's donation request: hot-remove the region
// from the local OS and export it over CRMA for the recipient. The
// answer goes back in the request's record.
func (a *Agent) onHotRemove(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	r := req.(*regionReq)
	if a.carve(p, r, statHotRemoveDeclined) {
		a.export(r, r.Base)
		a.Stats.add(statHotRemoveOK, 1)
	}
	return r, 32
}

// carve hot-removes r.Size bytes from the local OS and answers in r:
// OK, and the region's Base. It declines, leaving OK false and bumping
// the caller's declined counter, when idle memory is short or the
// hot-remove fails; a decline allocates nothing. The answer is written
// after the hot-plug sleep, and the MN leaves a record whose call timed
// out meanwhile to the GC, so the record is still this call's then.
func (a *Agent) carve(p *sim.Proc, r *regionReq, declined counter) bool {
	if a.MemMgr.Idle() < r.Size {
		a.Stats.add(declined, 1)
		return false
	}
	base, ok := a.MemMgr.TryHotRemove(p, r.Size)
	if !ok {
		a.Stats.add(declined, 1)
		return false
	}
	r.Base, r.OK = base, true
	return true
}

// export installs the CRMA export of the region at base to r's window,
// filed under the window key where a hot-return finds it.
func (a *Agent) export(r *regionReq, base uint64) {
	a.exports[r.key()] = a.EP.CRMA.Export(r.Recipient, r.RecipientBase, r.Size, base)
}

// onRelocate services the MN's lease-failover notice on the recipient:
// retarget the window's RAMT entry at the new donor and replay every
// access that was in flight toward the dead one. The window's user never
// sees an API change — blocked loads simply complete late, which is the
// transparency §3 promises extended to the failure path.
func (a *Agent) onRelocate(_ fabric.NodeID, req any) (any, int) {
	r := req.(*relocateReq)
	e, ok := a.EP.CRMA.Lookup(r.RecipientBase)
	if !ok || e.LocalBase != r.RecipientBase || e.Size != r.Size {
		// The window is gone (released concurrently with the failover);
		// nothing to retarget. The MN's RAT row will clear on free.
		a.Stats.add(statRelocateStale, 1)
		return &relocateResp{OK: false}, 16
	}
	a.EP.CRMA.Retarget(e, r.NewDonor, r.NewDonorBase)
	replayed := a.EP.CRMA.ReplayWindow(r.RecipientBase, r.Size)
	a.Stats.add(statRelocateOK, 1)
	a.Stats.add(statRelocateReplayed, int64(replayed))
	return &relocateResp{OK: true}, 16
}

// onRevoke services the MN's revoke-without-replacement notice: the
// window goes dead so parked accesses unwedge and future ones fail fast.
func (a *Agent) onRevoke(_ fabric.NodeID, req any) (any, int) {
	r := req.(*revokeReq)
	a.EP.CRMA.KillWindow(r.RecipientBase, r.Size)
	a.Stats.add(statRevoked, 1)
	return &ack{}, 8
}

// onSpareCarve services the MN's spare-pool provisioning request:
// hot-remove the region now — off any grant's critical path — and park
// it unexported so a later spareAttach can hand it out without the
// hot-plug latency.
func (a *Agent) onSpareCarve(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	r := req.(*regionReq)
	if a.carve(p, r, statSpareDeclined) {
		a.spares[r.Base] = r.Size
		a.Stats.add(statSpareCarved, 1)
	}
	return r, 32
}

// onSpareAttach exports a parked spare region to a recipient — the
// failover/migration fast path. The hot-plug already happened at carve
// time, so this is only the CRMA export install.
func (a *Agent) onSpareAttach(_ fabric.NodeID, req any) (any, int) {
	r := req.(*regionReq)
	if size, ok := a.spares[r.Base]; !ok || size != r.Size {
		// The MN's pool entry is stale (we rebooted since the carve, or
		// this is a duplicate attach): refuse so the MN falls back to an
		// ordinary hot-remove instead of handing out memory we don't hold.
		a.Stats.add(statSpareAttachStale, 1)
		r.OK = false
		return r, 16
	}
	delete(a.spares, r.Base)
	a.export(r, r.Base)
	a.Stats.add(statSpareAttached, 1)
	r.OK = true
	return r, 16
}

// onHotReturn tears down a donation: invalidate the export and hot-add
// the region back into the local OS.
func (a *Agent) onHotReturn(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	r := req.(*regionReq)
	key := r.key()
	e, ok := a.exports[key]
	if !ok {
		// Stale or duplicate return (e.g. an orphan replayed after a
		// reboot already wiped the export, or a cancellation for a
		// hot-remove this agent never performed): refuse rather than
		// guess — scanning by recipient could unexport a live sibling
		// lease.
		a.Stats.add(statHotReturnStale, 1)
		return &ack{}, 8
	}
	base, size := r.Base, r.Size
	if size == 0 {
		// Cancellation form: the MN never saw our hot-remove ACK, so it
		// cannot name the region; our export entry can.
		base, size = e.RemoteBase, e.Size
		a.Stats.add(statHotReturnCancelled, 1)
	}
	a.EP.CRMA.Unmap(e)
	delete(a.exports, key)
	if err := a.MemMgr.HotAddReturn(p, base, size); err != nil {
		a.Stats.add(statHotReturnFailed, 1)
		return &ack{}, 8
	}
	a.Stats.add(statHotReturnOK, 1)
	return &ack{}, 8
}
