package chaos

import (
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// TestRollingShape: rolling churn alternates nodes, one outage at a
// time.
func TestRollingShape(t *testing.T) {
	acts := Rolling([]fabric.NodeID{2, 3}, 10*sim.Millisecond, 3*sim.Millisecond, 4)
	if len(acts) != 8 {
		t.Fatalf("4 cycles should give 8 actions, got %d", len(acts))
	}
	for k := 0; k < 4; k++ {
		down, up := acts[2*k], acts[2*k+1]
		if down.Op != NodeDown || up.Op != NodeUp || down.Node != up.Node {
			t.Fatalf("cycle %d malformed: %+v %+v", k, down, up)
		}
		if want := fabric.NodeID(2 + k%2); down.Node != want {
			t.Fatalf("cycle %d hit node %v, want %v", k, down.Node, want)
		}
		if up.At-down.At != 3*sim.Millisecond {
			t.Fatalf("cycle %d outage %v, want 3ms", k, up.At-down.At)
		}
		// The next crash begins only after this repair.
		if k > 0 && down.At <= acts[2*k-1].At {
			t.Fatalf("cycle %d overlaps previous outage", k)
		}
	}
}

// TestInstallDrivesFabric: an installed schedule actually takes nodes
// and links down and brings them back, at its precomputed instants.
func TestInstallDrivesFabric(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	net := fabric.NewNetwork(eng, &p, fabric.Mesh3D(2, 2, 1), sim.NewRNG(1))
	for i := 0; i < 4; i++ {
		net.SetDelivery(fabric.NodeID(i), func(*fabric.Packet) {})
	}
	in := New(eng, net, nil)
	n, err := in.Install(Schedule{
		Actions: []Action{
			{At: 1 * sim.Millisecond, Op: NodeDown, Node: 2},
			{At: 2 * sim.Millisecond, Op: LinkDown, A: 0, B: 1},
			{At: 3 * sim.Millisecond, Op: NodeUp, Node: 2},
			{At: 4 * sim.Millisecond, Op: LinkUp, A: 0, B: 1},
		},
	})
	if err != nil || n != 4 {
		t.Fatalf("install: n=%d err=%v", n, err)
	}
	eng.RunFor(1500 * sim.Microsecond)
	if !net.NodeDown(2) || net.Link(0, 1).Down() {
		t.Fatal("1.5ms: node 2 should be down, link 0-1 up")
	}
	eng.RunFor(1 * sim.Millisecond) // 2.5ms
	if !net.Link(0, 1).Down() {
		t.Fatal("2.5ms: link 0-1 should be down")
	}
	eng.RunFor(2 * sim.Millisecond) // 4.5ms
	if net.NodeDown(2) || net.Link(0, 1).Down() {
		t.Fatal("4.5ms: everything should be repaired")
	}
	if len(in.Trace) != 4 {
		t.Fatalf("trace has %d entries, want 4", len(in.Trace))
	}
	if in.Trace[0].At != sim.Time(0).Add(1*sim.Millisecond) {
		t.Fatalf("first action applied at %v, want 1ms", in.Trace[0].At)
	}
}

// TestInstallRejectsUnknownOp: a plan holding an op no injector knows
// is refused whole, before any of it is scheduled, rather than
// accepted and left to panic when the engine reaches the action.
func TestInstallRejectsUnknownOp(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	p := sim.Default()
	net := fabric.NewNetwork(eng, &p, fabric.Mesh3D(2, 2, 1), sim.NewRNG(1))
	in := New(eng, net, nil)
	n, err := in.Install(Schedule{
		Actions: []Action{
			{At: 1 * sim.Millisecond, Op: NodeDown, Node: 2},
			{At: 2 * sim.Millisecond, Op: "node-flap", Node: 3},
		},
	})
	if err == nil || n != 0 {
		t.Fatalf("install: n=%d err=%v, want 0 and an error", n, err)
	}
	if !strings.Contains(err.Error(), `"node-flap"`) {
		t.Errorf("error %q does not name the unknown op", err)
	}
	if got := eng.Pending(); got != 0 {
		t.Fatalf("%d events scheduled by a rejected plan, want 0", got)
	}
	eng.RunFor(3 * sim.Millisecond)
	if net.NodeDown(2) || len(in.Trace) != 0 {
		t.Fatalf("a rejected plan acted: node 2 down=%v, trace %v", net.NodeDown(2), in.Trace)
	}
}
