package obs

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// State is one JSON-marshallable snapshot of a live cluster's control
// plane: the registry (donors), the allocation tables (leases), the
// root MN's delegation table, rack health, link telemetry, and the
// MNs' counters. Snapshots are built ON the simulation goroutine
// (SnapshotFlat/SnapshotHier read monitor state that only that
// goroutine may touch) and handed to readers through a StateCell.
type State struct {
	Now   sim.Time `json:"now_ns"`
	Shape string   `json:"shape"` // "flat" or "hier"

	Donors      []DonorState         `json:"donors"`
	Leases      []monitor.Allocation `json:"leases"`
	Delegations []monitor.Delegation `json:"delegations,omitempty"`
	Racks       []monitor.RackStatus `json:"racks,omitempty"`
	Links       []monitor.LinkStatus `json:"links,omitempty"`
	Telemetry   TelemetrySummary     `json:"telemetry"`
	Stats       map[string]int64     `json:"stats,omitempty"`
}

// DonorState is the JSON face of one RRT row.
type DonorState struct {
	Node      int            `json:"node"`
	IdleBytes uint64         `json:"idle_bytes"`
	Devices   map[string]int `json:"devices,omitempty"`
	LastBeat  sim.Time       `json:"last_beat_ns"`
	Beats     int64          `json:"beats"`
	Dead      bool           `json:"dead,omitempty"`
}

// TelemetrySummary is the JSON face of the placement View: per-donor
// live-allocation load plus whether windowed link telemetry is
// flowing.
type TelemetrySummary struct {
	HasTelemetry bool        `json:"has_telemetry"`
	Load         map[int]int `json:"load,omitempty"`
}

// SnapshotFlat captures a flat cluster's control plane. Call only
// from the simulation goroutine.
func SnapshotFlat(c *core.Cluster) *State {
	st := &State{
		Now:   c.Eng.Now(),
		Shape: "flat",
		Stats: scoreboardMap(&c.MN.Stats),
	}
	fillMonitor(st, c.MN)
	return st
}

// SnapshotHier captures a rack-scale cluster's control plane: every
// sub-MN's tables merged, plus the root's delegation table and rack
// registry. Call only from the simulation goroutine.
func SnapshotHier(c *core.HierCluster) *State {
	st := &State{
		Now:   c.Eng.Now(),
		Shape: "hier",
		Stats: scoreboardMap(&c.Root.Stats),
	}
	for _, sub := range c.Subs {
		fillMonitor(st, sub)
		for k, v := range scoreboardMap(&sub.Stats) {
			st.Stats[k] += v
		}
	}
	st.Delegations = c.Root.Delegations()
	for r := 0; r < c.Hier.Racks; r++ {
		if rs, ok := c.Root.RackStatusOf(r); ok {
			st.Racks = append(st.Racks, rs)
		}
	}
	return st
}

// fillMonitor appends one Monitor's RRT/RAT/TST and telemetry view
// into st.
func fillMonitor(st *State, m *monitor.Monitor) {
	for _, reg := range m.Registrations() {
		d := DonorState{
			Node: int(reg.Node), IdleBytes: reg.IdleBytes,
			LastBeat: reg.LastBeat, Beats: reg.Beats, Dead: reg.Dead,
		}
		if devs := reg.DeviceCounts(); len(devs) > 0 {
			d.Devices = make(map[string]int, len(devs))
			for k, n := range devs {
				d.Devices[k.String()] = n
			}
		}
		st.Donors = append(st.Donors, d)
	}
	st.Leases = append(st.Leases, m.Allocations()...)
	st.Links = append(st.Links, m.Links()...)
	v := m.View()
	if v.HasTelemetry {
		st.Telemetry.HasTelemetry = true
	}
	for id, n := range v.Load {
		if st.Telemetry.Load == nil {
			st.Telemetry.Load = make(map[int]int)
		}
		st.Telemetry.Load[int(id)] += n
	}
}

// scoreboardMap copies a counter set into a plain map.
func scoreboardMap(sb *monitor.Counters) map[string]int64 {
	out := make(map[string]int64)
	for _, k := range sb.Keys() {
		out[k] = sb.Get(k)
	}
	return out
}

// StateCell hands snapshots from the simulation goroutine to HTTP
// readers: Set swaps the pointer atomically, Get returns the latest
// (possibly nil before the first Set). Readers must treat the State
// as immutable.
type StateCell struct {
	p atomic.Pointer[State]
}

// Set publishes a new snapshot.
func (c *StateCell) Set(s *State) { c.p.Store(s) }

// Get returns the latest snapshot, or nil before the first Set.
func (c *StateCell) Get() *State { return c.p.Load() }
