package monitor

import (
	"fmt"

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
	Devices map[Resource]int

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

	// Stats counts agent activity.
	Stats sim.Scoreboard
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
		Devices:  make(map[Resource]int),
		Interval: 500 * sim.Millisecond,
		exports:  make(map[windowKey]*transport.RAMTEntry),
		marks:    make(map[fabric.NodeID]*linkMarks),
		spares:   make(map[uint64]uint64),
	}
	ep.HandleCall(kindHotRemove, a.onHotRemove)
	ep.HandleCall(kindHotReturn, a.onHotReturn)
	ep.HandleCall(kindRelocate, a.onRelocate)
	ep.HandleCall(kindRevoke, a.onRevoke)
	ep.HandleCall(kindSpareCarve, a.onSpareCarve)
	ep.HandleCall(kindSpareAttach, a.onSpareAttach)
	return a
}

// Start begins heartbeating to the MN at mnID. Each node's phase is
// staggered by its id so reports do not stampede the MN.
func (a *Agent) Start(mnID fabric.NodeID) {
	a.mn = mnID
	a.EP.Eng.Go(fmt.Sprintf("agent@%v", a.EP.ID), func(p *sim.Proc) {
		p.Sleep(sim.Dur(int64(a.EP.ID)+1) * sim.Millisecond)
		for !a.stopped {
			if !a.crashed && !a.muted {
				a.beat(p)
			}
			p.Sleep(a.Interval)
		}
	})
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
// beating resumes.
func (a *Agent) Restart() {
	a.incarnation++
	a.exports = make(map[windowKey]*transport.RAMTEntry)
	a.spares = make(map[uint64]uint64) // parked spares die with the power cycle
	a.EP.CRMA.Reset()
	a.MemMgr.Reboot()
	a.crashed = false
	a.Stats.Add("reboots", 1)
}

// Incarnation reports the agent's reboot count.
func (a *Agent) Incarnation() int64 { return a.incarnation }

// Mute suppresses (or restores) heartbeats without touching node state —
// the pure heartbeat-loss fault. A muted agent still services donor
// requests; the MN may falsely declare it dead and re-place its leases,
// which is exactly the scenario the orphan-return path cleans up.
func (a *Agent) Mute(muted bool) { a.muted = muted }

// beat sends one heartbeat: idle memory, device counts, link probes.
func (a *Agent) beat(p *sim.Proc) {
	devs := make(map[Resource]int, len(a.Devices))
	for k, v := range a.Devices {
		devs[k] = v
	}
	hb := &Heartbeat{
		Node:        a.EP.ID,
		IdleBytes:   a.MemMgr.Idle(),
		Devices:     devs,
		Links:       a.probeLinks(),
		Incarnation: a.incarnation,
	}
	// Bounded wait: a beat whose ack is lost (down link on the MN path,
	// or our own node dying mid-flight) must not wedge the daemon.
	if _, ok := a.EP.CallTimeout(p, a.mn, kindHeartbeat, 64, hb, a.Interval); !ok {
		a.Stats.Add("beats.lost", 1)
	}
	a.Stats.Add("beats", 1)
}

// probeLinks tests this node's fabric ports (the daemon "tests and
// reports the status of the Venice fabric links on every heartbeat").
// With Telemetry on, each probe additionally samples both directions of
// the link and reports the busier one's utilization over the window
// since the previous beat.
func (a *Agent) probeLinks() []LinkProbe {
	var probes []LinkProbe
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
// from the local OS and export it over CRMA for the recipient.
func (a *Agent) onHotRemove(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	r := req.(*hotRemoveReq)
	if a.MemMgr.Idle() < r.Size {
		a.Stats.Add("hotremove.declined", 1)
		return &hotRemoveResp{OK: false, Err: "insufficient idle memory"}, 32
	}
	base, err := a.MemMgr.HotRemove(p, r.Size)
	if err != nil {
		a.Stats.Add("hotremove.declined", 1)
		return &hotRemoveResp{OK: false, Err: err.Error()}, 32
	}
	e := a.EP.CRMA.Export(r.Recipient, r.RecipientBase, r.Size, base)
	a.exports[windowKey{recipient: r.Recipient, base: r.RecipientBase}] = e
	a.Stats.Add("hotremove.ok", 1)
	return &hotRemoveResp{OK: true, Base: base}, 32
}

// onRelocate services the MN's lease-failover notice on the recipient:
// retarget the window's RAMT entry at the new donor and replay every
// access that was in flight toward the dead one. The window's user never
// sees an API change — blocked loads simply complete late, which is the
// transparency §3 promises extended to the failure path.
func (a *Agent) onRelocate(_ *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	r := req.(*relocateReq)
	e, ok := a.EP.CRMA.Lookup(r.RecipientBase)
	if !ok || e.LocalBase != r.RecipientBase || e.Size != r.Size {
		// The window is gone (released concurrently with the failover);
		// nothing to retarget. The MN's RAT row will clear on free.
		a.Stats.Add("relocate.stale", 1)
		return &relocateResp{OK: false}, 16
	}
	a.EP.CRMA.Retarget(e, r.NewDonor, r.NewDonorBase)
	replayed := a.EP.CRMA.ReplayWindow(r.RecipientBase, r.Size)
	a.Stats.Add("relocate.ok", 1)
	a.Stats.Add("relocate.replayed", int64(replayed))
	return &relocateResp{OK: true}, 16
}

// onRevoke services the MN's revoke-without-replacement notice: the
// window goes dead so parked accesses unwedge and future ones fail fast.
func (a *Agent) onRevoke(_ *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	r := req.(*revokeReq)
	a.EP.CRMA.KillWindow(r.RecipientBase, r.Size)
	a.Stats.Add("revoked", 1)
	return &ack{}, 8
}

// onSpareCarve services the MN's spare-pool provisioning request:
// hot-remove the region now — off any grant's critical path — and park
// it unexported so a later spareAttach can hand it out without the
// hot-plug latency.
func (a *Agent) onSpareCarve(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	r := req.(*spareCarveReq)
	if a.MemMgr.Idle() < r.Size {
		a.Stats.Add("spare.declined", 1)
		return &spareCarveResp{OK: false, Err: "insufficient idle memory"}, 32
	}
	base, err := a.MemMgr.HotRemove(p, r.Size)
	if err != nil {
		a.Stats.Add("spare.declined", 1)
		return &spareCarveResp{OK: false, Err: err.Error()}, 32
	}
	a.spares[base] = r.Size
	a.Stats.Add("spare.carved", 1)
	return &spareCarveResp{OK: true, Base: base}, 32
}

// onSpareAttach exports a parked spare region to a recipient — the
// failover/migration fast path. The hot-plug already happened at carve
// time, so this is only the CRMA export install.
func (a *Agent) onSpareAttach(_ *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	r := req.(*spareAttachReq)
	size, ok := a.spares[r.Base]
	if !ok || size != r.Size {
		// The MN's pool entry is stale (we rebooted since the carve, or
		// this is a duplicate attach): refuse so the MN falls back to an
		// ordinary hot-remove instead of handing out memory we don't hold.
		a.Stats.Add("spare.attach_stale", 1)
		return &spareAttachResp{OK: false, Err: "no such spare region"}, 16
	}
	delete(a.spares, r.Base)
	e := a.EP.CRMA.Export(r.Recipient, r.RecipientBase, r.Size, r.Base)
	a.exports[windowKey{recipient: r.Recipient, base: r.RecipientBase}] = e
	a.Stats.Add("spare.attached", 1)
	return &spareAttachResp{OK: true}, 16
}

// onHotReturn tears down a donation: invalidate the export and hot-add
// the region back into the local OS.
func (a *Agent) onHotReturn(p *sim.Proc, _ fabric.NodeID, req any) (any, int) {
	r := req.(*hotReturnReq)
	key := windowKey{recipient: r.Recipient, base: r.RecipientBase}
	e, ok := a.exports[key]
	if !ok {
		// Stale or duplicate return (e.g. an orphan replayed after a
		// reboot already wiped the export, or a cancellation for a
		// hot-remove this agent never performed): refuse rather than
		// guess — scanning by recipient could unexport a live sibling
		// lease.
		a.Stats.Add("hotreturn.stale", 1)
		return &ack{}, 8
	}
	base, size := r.Base, r.Size
	if size == 0 {
		// Cancellation form: the MN never saw our hot-remove ACK, so it
		// cannot name the region; our export entry can.
		base, size = e.RemoteBase, e.Size
		a.Stats.Add("hotreturn.cancelled", 1)
	}
	a.EP.CRMA.Unmap(e)
	delete(a.exports, key)
	if err := a.MemMgr.HotAddReturn(p, base, size); err != nil {
		a.Stats.Add("hotreturn.failed", 1)
		return &ack{}, 8
	}
	a.Stats.Add("hotreturn.ok", 1)
	return &ack{}, 8
}
