// Package chaos is the fault-injection half of the fault-tolerance
// story: fixed lists of node crashes/restarts and link failures/repairs,
// scheduled as discrete simulation events over the fabric's failure
// surfaces (fabric.Network.SetNodeDown / SetLinkDown) and the agent
// daemon's crash/restart surface. Every instant is fixed when the plan
// is installed, so a plan perturbs the simulation without the
// simulation ever perturbing the plan — the property that keeps churn
// experiments byte-identical under any harness parallelism.
package chaos

import (
	"fmt"

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
)

// ops maps every valid op onto what it does to the cluster: the one list
// Apply dispatches through and Install checks a plan against.
var ops = map[Op]func(in *Injector, a Action){
	NodeDown: func(in *Injector, a Action) {
		in.Net.SetNodeDown(a.Node, true)
		if ag := in.agent(a.Node); ag != nil {
			ag.Crash()
		}
	},
	NodeUp: func(in *Injector, a Action) {
		in.Net.SetNodeDown(a.Node, false)
		if ag := in.agent(a.Node); ag != nil {
			ag.Restart()
		}
	},
	LinkDown: func(in *Injector, a Action) { in.Net.SetLinkDown(a.A, a.B, true) },
	LinkUp:   func(in *Injector, a Action) { in.Net.SetLinkDown(a.A, a.B, false) },
}

// Action is one scheduled primitive: apply Op at At (relative to the
// instant the schedule is installed).
type Action struct {
	At   sim.Dur
	Op   Op
	Node fabric.NodeID // NodeDown/NodeUp
	A, B fabric.NodeID // LinkDown/LinkUp
}

// Schedule is a declarative fault plan: Install schedules each of its
// actions, in order, on the engine.
type Schedule struct {
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

// Apply performs one action now and records it. It panics on an
// unknown op; Install rejects a plan that holds one before scheduling
// any of it.
func (in *Injector) Apply(a Action) {
	do, ok := ops[a.Op]
	if !ok {
		panic(fmt.Sprintf("chaos: unknown op %q", a.Op))
	}
	do(in, a)
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

// Install schedules every action of the plan on the engine, relative to
// the current instant, and returns the number scheduled. A plan that
// holds an unknown op is rejected whole: nothing of it is scheduled.
func (in *Injector) Install(s Schedule) (int, error) {
	for i, a := range s.Actions {
		if _, ok := ops[a.Op]; !ok {
			return 0, fmt.Errorf("chaos: action %d: unknown op %q", i, a.Op)
		}
	}
	for _, a := range s.Actions {
		in.Eng.Schedule(a.At, func() { in.Apply(a) })
	}
	return len(s.Actions), nil
}
