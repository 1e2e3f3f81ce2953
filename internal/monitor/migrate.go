package monitor

import (
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Live lease migration: the telemetry plane tells the MN which leases
// sit behind saturated links *while they are being served*; the
// migration loop moves the hottest one per scan to a donor behind a
// cooler path. The move is failover's re-placement walk (replace, in
// recovery.go) with the old donor alive, so migration owns only its
// candidate filter. Like failover, it does not copy region contents —
// the serving scenarios lease remote memory for re-initializable state
// (caches, scratch, cold tiers), and the recipient-side CRMA replay
// guarantees no in-flight access is lost.

// Leases carry a traffic class (Tags.Latency): bulk by default,
// latency-sensitive on request. The scan serves the classes
// asymmetrically. A hot bulk lease is itself moved somewhere cooler — a
// max-utilization objective. A hot latency lease is never moved (the
// retarget pause is exactly what the class forbids); instead the scan
// relieves its bottleneck link by moving the largest bulk lease off it,
// even when that makes some bulk path hotter than the one relieved —
// bulk paths tolerate up to twice the hot threshold. Without the class
// asymmetry the scan could never isolate a latency flow from N equal
// bulk flows: pairing two bulk flows raises the max, so a pure max-util
// objective always refuses.

// The migration loop's cadence and thresholds. They are sized to the
// telemetry scale of the one scenario that runs the loop (the Tier
// serving cell): 2 KiB reads on multi-GB/s links leave
// single-digit-percent utilization even on a contended uplink, so "hot"
// means a link carrying several co-located flows, not a saturated one.
// The scan runs every two of that cell's telemetry beats, so it acts on
// fresh samples.
const (
	// migrateEvery is the scan period.
	migrateEvery = 500 * sim.Microsecond
	// migrateUtil is the windowed path utilization above which a lease
	// is hot.
	migrateUtil = 0.10
	// migrateMargin is how much cooler a destination path must be for a
	// move to be worthwhile.
	migrateMargin = 0.07
)

// pathRelief is migrateLease's relieve-a-latency-path mode: the
// saturated bottleneck being vacated, the victim's estimated
// contribution to it, and the utilization a bulk destination path may
// reach after absorbing that contribution.
type pathRelief struct {
	link    [2]fabric.NodeID
	share   float64
	ceiling float64
}

// StartMigration launches the MN's hot-lease scan, every 500 µs. The
// loop keeps the event queue non-empty forever, so drive the engine
// with RunFor or step-until-done, not Run. Without telemetry-enabled
// agents the loop never sees a hot path and does nothing. It panics on
// a sub-MN (see StartRackBeat).
func (m *Monitor) StartMigration() {
	m.flatOnly("migration")
	startLoop(m.EP.Eng, "mn-migrate", &m.migrationOn, migrateEvery, m.migrateScan)
}

// migrateScan finds the lease whose recipient→donor path has the
// hottest windowed bottleneck above the threshold and tries to relieve
// it: latency-sensitive leases first (by vacating a bulk sharer), then
// bulk leases (by moving the hot lease itself). One move per scan
// bounds churn; the next scan re-evaluates with fresh telemetry.
func (m *Monitor) migrateScan(p *sim.Proc) {
	v := m.view()
	if !v.HasTelemetry {
		return
	}
	ids := make([]int, 0, len(m.rat))
	for id := range m.rat {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var hotLat, hotBulk *Allocation
	latUtil, bulkUtil := 0.0, 0.0
	for _, id := range ids {
		a := m.rat[id]
		if a.Kind != Memory {
			continue
		}
		u, known := v.PathUtil(a.Recipient, a.Donor)
		if !known || u < migrateUtil {
			continue
		}
		switch {
		case a.Latency && u > latUtil:
			hotLat, latUtil = a, u
		case !a.Latency && u > bulkUtil:
			hotBulk, bulkUtil = a, u
		}
	}
	switch {
	case hotLat != nil:
		m.Stats.add(statMigrateHotDetected, 1)
		m.relieveLatencyPath(p, v, hotLat, latUtil, ids)
	case hotBulk != nil:
		m.Stats.add(statMigrateHotDetected, 1)
		m.migrateLease(p, v, hotBulk, bulkUtil, nil)
	}
}

// relieveLatencyPath vacates the bottleneck link of a hot
// latency-sensitive lease: the largest bulk lease crossing that link
// (biggest relocatable share of its traffic) is moved to a path that
// avoids every latency lease, tolerating bulk destinations up to twice
// the hot threshold.
func (m *Monitor) relieveLatencyPath(p *sim.Proc, v *View, hot *Allocation, hotUtil float64, ids []int) {
	link, _, ok := v.PathBottleneck(hot.Recipient, hot.Donor)
	if !ok {
		m.Stats.add(statMigrateNoCandidate, 1)
		return
	}
	var victim *Allocation
	sharers := 0
	for _, id := range ids {
		a := m.rat[id]
		if a.Kind != Memory || !v.PathCrosses(a.Recipient, a.Donor, link) {
			continue
		}
		sharers++
		if a.Latency {
			continue
		}
		if victim == nil || a.Size > victim.Size {
			victim = a
		}
	}
	if victim == nil {
		// Only latency leases cross the link; there is nothing movable.
		m.Stats.add(statMigrateNoCandidate, 1)
		return
	}
	relief := &pathRelief{
		link:    link,
		share:   hotUtil / float64(sharers),
		ceiling: 2 * migrateUtil,
	}
	m.migrateLease(p, v, victim, hotUtil, relief)
}

// migrateLease moves one (always bulk-class) lease to a donor behind a
// better path: meaningfully cooler in the default mode, or — when
// relief is non-nil — any path that avoids the latency leases and
// stays under the bulk ceiling after absorbing the victim's share.
// This filter is all migration adds to the re-placement walk: with the
// old donor alive, replace aborts back to the old placement (which
// still works) on a lost relocate instead of parking a retry, and on
// success hot-returns the old region to its donor, off the serving
// critical path since the recipient is already retargeted.
func (m *Monitor) migrateLease(p *sim.Proc, v *View, a *Allocation, curUtil float64, relief *pathRelief) bool {
	// Links any latency-sensitive lease depends on: no migration may
	// land bulk traffic there, whichever mode chose the victim.
	latLinks := make(map[[2]fabric.NodeID]bool)
	for _, la := range m.rat {
		if la.Kind != Memory || !la.Latency {
			continue
		}
		for l := range v.path(la.Recipient, la.Donor) {
			latLinks[l] = true
		}
	}
	return m.replace(p, a, replacement{alive: true, accept: func(cand *Registration) bool {
		if crossesAny(v, a.Recipient, cand.Node, latLinks) {
			return false
		}
		cu, known := v.PathUtil(a.Recipient, cand.Node)
		switch {
		case !known:
			// A never-sampled path reads as idle (nothing hot has crossed
			// it this window).
			return true
		case relief != nil:
			// Relieving a latency path: the destination only has to absorb
			// the victim's share without itself turning pathological.
			return cu+relief.share <= relief.ceiling
		default:
			// Only move somewhere meaningfully cooler.
			return cu <= curUtil-migrateMargin
		}
	}})
}

// crossesAny reports whether the a→b path traverses any link in links.
func crossesAny(v *View, a, b fabric.NodeID, links map[[2]fabric.NodeID]bool) bool {
	if len(links) == 0 {
		return false
	}
	for l := range v.path(a, b) {
		if links[l] {
			return true
		}
	}
	return false
}
