// Package chaos is the fault-injection half of the fault-tolerance
// story: deterministic, seed-driven schedules of node crashes/restarts,
// link failures/repairs, and heartbeat loss, compiled into discrete
// simulation events over the fabric's failure surfaces
// (fabric.Network.SetNodeDown / SetLinkDown) and the agent daemon's
// crash/restart/mute surface. Every stochastic instant is drawn from the
// schedule's own seeded RNG at install time, so a schedule perturbs the
// simulation without the simulation ever perturbing the schedule — the
// property that keeps churn experiments byte-identical under any
// harness parallelism.
package chaos

import (
	"fmt"
	"math"

	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// Op names one primitive fault action.
type Op string

// The primitive fault actions an injector can apply.
const (
	NodeDown Op = "node-down" // crash: fabric drops the node, agent stops
	NodeUp   Op = "node-up"   // reboot: fabric restores, agent restarts (fresh memory, +1 incarnation)
	LinkDown Op = "link-down" // both directions of a<->b fail
	LinkUp   Op = "link-up"   // both directions restored
	BeatOff  Op = "beat-off"  // heartbeat loss only; the node stays healthy
	BeatOn   Op = "beat-on"   // heartbeats resume
)

// Action is one scheduled primitive: apply Op at At (relative to the
// instant the schedule is installed).
type Action struct {
	At   sim.Dur
	Op   Op
	Node fabric.NodeID // NodeDown/NodeUp/BeatOff/BeatOn
	A, B fabric.NodeID // LinkDown/LinkUp
}

// NodeFault describes recurring crash/restart churn for one node: time
// to failure and time to repair are exponentially distributed with the
// given means, the standard memoryless MTTF/MTTR model.
type NodeFault struct {
	Node fabric.NodeID
	MTTF sim.Dur // mean time to failure (measured from previous repair)
	MTTR sim.Dur // mean time to repair (outage length)
	// Count bounds the number of crash/restart cycles; 0 means bounded
	// only by the schedule's Horizon.
	Count int
}

// LinkFault describes recurring link flapping with the same MTTF/MTTR
// semantics, applied to both directions of a<->b.
type LinkFault struct {
	A, B  fabric.NodeID
	MTTF  sim.Dur
	MTTR  sim.Dur
	Count int
}

// BeatFault describes recurring heartbeat loss (the node stays healthy;
// only its reports vanish) — the false-positive generator.
type BeatFault struct {
	Node  fabric.NodeID
	MTTF  sim.Dur
	MTTR  sim.Dur
	Count int
}

// Schedule is a declarative fault plan. Install compiles it into engine
// events; the Seed fully determines every instant.
type Schedule struct {
	Seed uint64
	// Horizon stops new fault injection (repairs still complete so the
	// system is left converging, not wedged). Required unless every
	// recurring fault carries an explicit Count.
	Horizon sim.Dur
	Nodes   []NodeFault
	Links   []LinkFault
	Beats   []BeatFault
	Actions []Action
}

// Rolling builds the classic rolling-churn plan: the nodes take turns
// crashing, one full period apart, each outage lasting for outage. With
// outage < period at most one of them is ever down — donor re-election
// always has somewhere to go, which is the regime availability studies
// sweep. cycles counts total crashes across the group.
func Rolling(nodes []fabric.NodeID, period, outage sim.Dur, cycles int) []Action {
	if len(nodes) == 0 || cycles <= 0 {
		return nil
	}
	if outage >= period {
		panic(fmt.Sprintf("chaos: rolling outage %v must be shorter than period %v", outage, period))
	}
	var acts []Action
	for k := 0; k < cycles; k++ {
		at := sim.Dur(k+1) * period
		n := nodes[k%len(nodes)]
		acts = append(acts,
			Action{At: at, Op: NodeDown, Node: n},
			Action{At: at + outage, Op: NodeUp, Node: n},
		)
	}
	return acts
}

// Injector applies fault actions to a running cluster and records what
// it did.
type Injector struct {
	Eng    *sim.Engine
	Net    *fabric.Network
	Agents []*monitor.Agent // indexed by node id; nil entries are fabric-only nodes

	// Trace records every applied action with its absolute instant, in
	// application order — the deterministic log tests compare.
	Trace []AppliedAction
}

// AppliedAction is one Trace row.
type AppliedAction struct {
	At     sim.Time
	Action Action
}

// New wires an injector over a network and its agents.
func New(eng *sim.Engine, net *fabric.Network, agents []*monitor.Agent) *Injector {
	return &Injector{Eng: eng, Net: net, Agents: agents}
}

// Apply performs one action now and records it.
func (in *Injector) Apply(a Action) {
	switch a.Op {
	case NodeDown:
		in.Net.SetNodeDown(a.Node, true)
		if ag := in.agent(a.Node); ag != nil {
			ag.Crash()
		}
	case NodeUp:
		in.Net.SetNodeDown(a.Node, false)
		if ag := in.agent(a.Node); ag != nil {
			ag.Restart()
		}
	case LinkDown:
		in.Net.SetLinkDown(a.A, a.B, true)
	case LinkUp:
		in.Net.SetLinkDown(a.A, a.B, false)
	case BeatOff:
		if ag := in.agent(a.Node); ag != nil {
			ag.Mute(true)
		}
	case BeatOn:
		if ag := in.agent(a.Node); ag != nil {
			ag.Mute(false)
		}
	default:
		panic(fmt.Sprintf("chaos: unknown op %q", a.Op))
	}
	in.Trace = append(in.Trace, AppliedAction{At: in.Eng.Now(), Action: a})
}

func (in *Injector) agent(id fabric.NodeID) *monitor.Agent {
	if int(id) >= len(in.Agents) {
		return nil
	}
	return in.Agents[id]
}

// KillNode crashes a node immediately (fabric + agent).
func (in *Injector) KillNode(id fabric.NodeID) { in.Apply(Action{Op: NodeDown, Node: id}) }

// RestartNode reboots a node immediately.
func (in *Injector) RestartNode(id fabric.NodeID) { in.Apply(Action{Op: NodeUp, Node: id}) }

// expDur samples an exponential duration with the given mean, clamped to
// the engine's nanosecond resolution.
func expDur(rng *sim.RNG, mean sim.Dur) sim.Dur {
	if mean <= 0 {
		panic("chaos: non-positive MTTF/MTTR mean")
	}
	d := -math.Log(1-rng.Float64()) * float64(mean)
	if d < 1 {
		d = 1
	}
	if d > float64(math.MaxInt64)/4 {
		d = float64(math.MaxInt64) / 4
	}
	return sim.Dur(d)
}

// compileRecurring turns one MTTF/MTTR stream into down/up action pairs.
func compileRecurring(rng *sim.RNG, mttf, mttr sim.Dur, count int, horizon sim.Dur,
	down, up Action) ([]Action, error) {
	if count <= 0 && horizon <= 0 {
		return nil, fmt.Errorf("chaos: recurring fault needs a Count or a schedule Horizon")
	}
	var acts []Action
	t := sim.Dur(0)
	for k := 0; count <= 0 || k < count; k++ {
		t += expDur(rng, mttf)
		if horizon > 0 && t > horizon {
			break
		}
		d, u := down, up
		d.At = t
		acts = append(acts, d)
		t += expDur(rng, mttr)
		u.At = t
		acts = append(acts, u)
	}
	return acts, nil
}

// Compile expands the schedule into a flat action list (relative
// instants), drawing every stochastic instant from the schedule's seed.
// Fault streams consume forked RNGs in declaration order, so adding a
// fault never disturbs the instants of the ones before it.
func (s Schedule) Compile() ([]Action, error) {
	rng := sim.NewRNG(s.Seed)
	acts := append([]Action(nil), s.Actions...)
	for _, nf := range s.Nodes {
		a, err := compileRecurring(rng.Fork(), nf.MTTF, nf.MTTR, nf.Count, s.Horizon,
			Action{Op: NodeDown, Node: nf.Node}, Action{Op: NodeUp, Node: nf.Node})
		if err != nil {
			return nil, fmt.Errorf("chaos: node %v: %w", nf.Node, err)
		}
		acts = append(acts, a...)
	}
	for _, lf := range s.Links {
		a, err := compileRecurring(rng.Fork(), lf.MTTF, lf.MTTR, lf.Count, s.Horizon,
			Action{Op: LinkDown, A: lf.A, B: lf.B}, Action{Op: LinkUp, A: lf.A, B: lf.B})
		if err != nil {
			return nil, fmt.Errorf("chaos: link %v<->%v: %w", lf.A, lf.B, err)
		}
		acts = append(acts, a...)
	}
	for _, bf := range s.Beats {
		a, err := compileRecurring(rng.Fork(), bf.MTTF, bf.MTTR, bf.Count, s.Horizon,
			Action{Op: BeatOff, Node: bf.Node}, Action{Op: BeatOn, Node: bf.Node})
		if err != nil {
			return nil, fmt.Errorf("chaos: beats %v: %w", bf.Node, err)
		}
		acts = append(acts, a...)
	}
	return acts, nil
}

// Install compiles the schedule and schedules every action on the
// engine, relative to the current instant. It returns the number of
// scheduled actions.
func (in *Injector) Install(s Schedule) (int, error) {
	acts, err := s.Compile()
	if err != nil {
		return 0, err
	}
	for _, a := range acts {
		a := a
		in.Eng.Schedule(a.At, func() { in.Apply(a) })
	}
	return len(acts), nil
}
