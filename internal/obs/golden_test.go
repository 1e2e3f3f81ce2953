package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// The golden files under testdata pin, byte for byte, what the control
// plane's snapshots and counters render: the /state JSON of a flat and
// of a sharded cluster, and every counter set's Keys and Get with the
// /metrics lines MirrorScoreboard writes. They were taken from scripted
// runs of the monitor plane as it stood when each file was written; a
// change to how the plane stores its counts must leave them unchanged.

// checkGolden fails t unless got equals testdata/name byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden file:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// stepUntil drives eng until done fires. Beat loops keep the queue
// alive forever, so Run would never return.
func stepUntil(t *testing.T, eng *sim.Engine, done *sim.Completion) {
	t.Helper()
	for !done.Done() && eng.Step() {
	}
	if !done.Done() {
		t.Fatalf("script wedged with %d live procs", eng.LiveProcs())
	}
}

// grantDevice leases one unit of res for cl's node 4 and fails t
// unless it is granted.
func grantDevice(t *testing.T, p *sim.Proc, cl *core.Cluster, res monitor.Resource) {
	t.Helper()
	c := &monitor.AllocCall{Req: monitor.AllocReq{Res: res}}
	if !monitor.Alloc(p, cl.Node(4).EP, cl.MN.Node(), c, 0) || !c.Resp.OK {
		t.Errorf("%v grant: %+v", res, c.Resp)
	}
}

// flatScript is a flat 8-node cluster whose recipient, node 4, holds a
// memory lease, two accelerators and a NIC: node 6 advertises two
// accelerators and a NIC and backs all three device leases, so after
// its next heartbeat re-debits them both its classes read 0; node 2's
// one accelerator and one NIC stay free.
func flatScript(t *testing.T) *core.Cluster {
	cl := core.NewCluster(core.Config{StartAgents: true, HeartbeatInterval: 100 * sim.Microsecond})
	t.Cleanup(cl.Close)
	cl.Agents[2].Devices[monitor.DevAccelerator] = 1
	cl.Agents[2].Devices[monitor.DevNIC] = 1
	cl.Agents[6].Devices[monitor.DevAccelerator] = 2
	cl.Agents[6].Devices[monitor.DevNIC] = 1
	cl.RunFor(20 * sim.Millisecond)
	app := cl.Node(4)
	done := app.Run("golden", func(p *sim.Proc) {
		if _, err := cl.Acquire(p, core.NewRequest(core.Memory, app, 8<<20)); err != nil {
			t.Error(err)
		}
		grantDevice(t, p, cl, monitor.DevAccelerator)
		grantDevice(t, p, cl, monitor.DevAccelerator)
		grantDevice(t, p, cl, monitor.DevNIC)
	})
	stepUntil(t, cl.Eng, done)
	cl.RunFor(sim.Millisecond)
	return cl
}

// hierScript is a two-rack cluster in which rack 1's node advertises
// one accelerator and two NICs, and a rack-0 node leases 4 MiB of
// memory and then that accelerator from rack 1 (ScopeRemoteRack): two
// cross-rack delegations. It stops as the last grant lands, before the
// next rackbeat, so the root's row for rack 1 still lists the
// accelerator it delegated, at 0.
func hierScript(t *testing.T) *core.HierCluster {
	cl := core.NewHierCluster(core.HierConfig{
		Racks: 2, RackX: 2, RackY: 2, RackZ: 1, Seed: 7,
		HeartbeatInterval: 100 * sim.Microsecond,
		RackBeatInterval:  200 * sim.Microsecond,
	})
	t.Cleanup(cl.Close)
	far := cl.Hier.RackNodes(1)[2]
	cl.Agents[far].Devices[monitor.DevAccelerator] = 1
	cl.Agents[far].Devices[monitor.DevNIC] = 2
	cl.RunFor(30 * sim.Millisecond)
	app := cl.Node(int(cl.Hier.RackNodes(0)[1]))
	done := app.Run("golden", func(p *sim.Proc) {
		for _, req := range []monitor.AllocReq{
			{Res: monitor.Memory, Size: 4 << 20, WindowBase: 0x4000_0000, Scope: monitor.ScopeRemoteRack},
			{Res: monitor.DevAccelerator, Scope: monitor.ScopeRemoteRack},
		} {
			c := &monitor.AllocCall{Req: req}
			if !monitor.Alloc(p, app.EP, cl.SubNode(0), c, 0) || !c.Resp.OK {
				t.Errorf("%v borrow: %+v", req.Res, c.Resp)
			}
		}
	})
	stepUntil(t, cl.Eng, done)
	return cl
}

// failoverScript is a flat cluster with recovery on whose recipient
// holds a memory lease while its donor crashes: the MN re-places it,
// and the recipient's agent replays none of its accesses (an add of 0
// to relocate.replayed), before the lease is released.
func failoverScript(t *testing.T) *core.Cluster {
	cl := core.NewCluster(core.Config{
		StartAgents:       true,
		StartRecovery:     true,
		HeartbeatInterval: 100 * sim.Microsecond,
		HeartbeatTimeout:  500 * sim.Microsecond,
		SweepInterval:     250 * sim.Microsecond,
	})
	t.Cleanup(cl.Close)
	if err := cl.Node(0).MemMgr.Reserve(cl.Node(0).MemMgr.Idle()); err != nil {
		t.Fatal(err)
	}
	cl.RunFor(20 * sim.Millisecond)
	app := cl.Node(4)
	done := app.Run("golden", func(p *sim.Proc) {
		l, err := cl.Acquire(p, core.NewRequest(core.Memory, app, 8<<20))
		if err != nil {
			t.Error(err)
			return
		}
		donor := l.Donor()
		cl.Eng.Schedule(sim.Millisecond, func() {
			cl.Net.SetNodeDown(donor, true)
			cl.Agents[donor].Crash()
		})
		p.Sleep(5 * sim.Millisecond)
		l.Release(p)
	})
	stepUntil(t, cl.Eng, done)
	return cl
}

// renderState is a snapshot's indented JSON.
func renderState(t *testing.T, st *State) []byte {
	t.Helper()
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestSnapshotFlatGolden pins SnapshotFlat's JSON for a flat cluster
// with accelerators and NICs on loan, one donor's classes re-debited to
// 0 by its heartbeat.
func TestSnapshotFlatGolden(t *testing.T) {
	st := SnapshotFlat(flatScript(t))
	zero := false
	for _, d := range st.Donors {
		for _, n := range d.Devices {
			zero = zero || n == 0
		}
	}
	if !zero {
		t.Error("no donor lists a device class re-debited to 0")
	}
	checkGolden(t, "snapshot_flat.json", renderState(t, st))
}

// TestSnapshotHierGolden pins SnapshotHier's JSON after cross-rack
// device and memory delegations.
func TestSnapshotHierGolden(t *testing.T) {
	st := SnapshotHier(hierScript(t))
	if len(st.Delegations) != 2 {
		t.Errorf("%d delegations, want 2", len(st.Delegations))
	}
	if b, _ := json.Marshal(st.Racks); !strings.Contains(string(b), `"Devices":{"accelerator":0,"nic":2}`) {
		t.Errorf("rack rows %s, want rack 1's delegated accelerator listed at 0", b)
	}
	checkGolden(t, "snapshot_hier.json", renderState(t, st))
}

// counterSet is what the golden counter test reads of one counter set:
// its Keys, and Get of each.
type counterSet interface {
	Keys() []string
	Get(string) int64
}

// writeCounters appends one line per key of cs, "who key value".
func writeCounters(b *strings.Builder, who string, cs counterSet) {
	for _, k := range cs.Keys() {
		fmt.Fprintf(b, "%s %s %d\n", who, k, cs.Get(k))
	}
}

// TestCountersGolden pins every counter set's Keys and Get after the
// three scripted runs (the MN's, the root's, each sub-MN's and each
// agent's), including relocate.replayed's add of 0 and a name no
// counter has, and the /metrics lines MirrorScoreboard writes for the
// failover run's MN and recipient agent.
func TestCountersGolden(t *testing.T) {
	var b strings.Builder
	flat := flatScript(t)
	writeCounters(&b, "flat.mn", &flat.MN.Stats)
	for i, ag := range flat.Agents {
		writeCounters(&b, fmt.Sprintf("flat.agent%d", i), &ag.Stats)
	}
	hier := hierScript(t)
	writeCounters(&b, "hier.root", &hier.Root.Stats)
	for i, sub := range hier.Subs {
		writeCounters(&b, fmt.Sprintf("hier.sub%d", i), &sub.Stats)
	}
	for i, ag := range hier.Agents {
		if ag != nil {
			writeCounters(&b, fmt.Sprintf("hier.agent%d", i), &ag.Stats)
		}
	}
	fo := failoverScript(t)
	writeCounters(&b, "failover.mn", &fo.MN.Stats)
	for i, ag := range fo.Agents {
		writeCounters(&b, fmt.Sprintf("failover.agent%d", i), &ag.Stats)
	}
	fmt.Fprintf(&b, "unknown %d\n", fo.MN.Stats.Get("no.such.counter"))

	var reg Registry
	col := &Collector{Reg: &reg}
	col.MirrorScoreboard("venice_mn_stats", "Monitor Node scoreboard counters.", &fo.MN.Stats)
	col.MirrorScoreboard("venice_agent_stats", "Agent counters.", &fo.Agents[4].Stats)
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if fo.Agents[4].Stats.Get("relocate.ok") != 1 || !strings.Contains(b.String(), "failover.agent4 relocate.replayed 0\n") {
		t.Error("the failover run does not relocate the lease with nothing to replay")
	}
	checkGolden(t, "counters.txt", []byte(b.String()))
}
