package obs

import (
	"encoding/json"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/tenancy"
)

// Collector wires a resource plane's lease-lifecycle stream into the
// observability layer: every core.Event increments the registry's
// per-type/per-kind counters, lands in the trace store's span chain,
// and is published (as its stable JSON form) to the broadcaster for
// live SSE consumers. Every sink is optional — leave a field nil to
// skip it.
//
// The observer callback runs synchronously on the simulation
// goroutine and touches only wall-clock structures, so attaching a
// Collector never changes virtual time or determinism.
type Collector struct {
	Reg    *Registry
	Traces *TraceStore
	Events *Broadcaster
}

// Attach subscribes the collector to pl's event stream and returns
// the subscription's cancel.
func (c *Collector) Attach(pl core.Plane) (cancel func()) {
	return pl.Observe(c.OnEvent)
}

// OnEvent feeds one lease-lifecycle event into every configured sink.
// It is the plane observer; scenario code may also call it directly
// with synthetic events.
func (c *Collector) OnEvent(ev core.Event) {
	if c.Reg != nil {
		labels := map[string]string{"type": ev.Type.String(), "kind": ev.Kind.String()}
		// Class-tagged events get a third label; untagged events keep the
		// historical two-label series so pre-tenancy dashboards (and the
		// pinned render tests) see an unchanged wire form.
		if ev.Class != tenancy.ClassNone {
			labels["class"] = ev.Class.String()
		}
		c.Reg.Counter("venice_lease_events_total",
			"Lease-lifecycle events by type and resource kind.",
			labels).Inc()
	}
	if c.Traces != nil {
		c.Traces.Add(ev)
	}
	if c.Events != nil {
		if msg, err := json.Marshal(ev); err == nil {
			c.Events.Publish(msg)
		}
	}
}

// MirrorScoreboard copies a monitor-plane counter set into the
// registry as gauges named metric{key="..."} — gauges, not counters,
// because a snapshot of the set is a level read, and re-mirroring
// must overwrite rather than accumulate. Call it from the snapshot
// hook (sim goroutine) whenever fresh values are wanted.
func (c *Collector) MirrorScoreboard(metric, help string, sb *monitor.Counters) {
	if c.Reg == nil || sb == nil {
		return
	}
	for _, k := range sb.Keys() {
		c.Reg.Gauge(metric, help, map[string]string{"key": k}).Set(float64(sb.Get(k)))
	}
}
