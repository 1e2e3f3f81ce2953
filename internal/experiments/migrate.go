package experiments

import (
	"repro/internal/harness"
	"repro/internal/serving"
)

// The migrate-smoke experiment is the telemetry plane's acceptance
// harness, pairing each new mechanism with the frozen baseline it must
// beat:
//
//   - The pressured cache-tier cell (n8, u0.90, three tenants) under
//     the prototype's distance placement versus the same cell under
//     traffic-aware placement with the telemetry plane and the
//     mid-serve migration loop on. Placement alone cannot win this
//     cell — the tier leases before the tenants start hammering, so
//     utilization is flat when placement happens; the win has to come
//     from migrating leases off the saturated uplinks mid-run.
//   - The fast-churn cell (n4, rolling donor crashes) with cold
//     failover versus the same cell with per-donor spare-region pools
//     pre-plugged, which converts recovery's ~2 ms hot-plug into a
//     pool refill off the serving path.
//
// Cells reuse the serving/churn sweeps' scenarios, request counts, and
// shard seeds, so the numbers are directly comparable with those
// sweeps' tables.

// migrateServingCells pairs the frozen-placement baseline with the
// telemetry+migration treatment on the same pressured tier cell.
func migrateServingCells() []cell[serving.Config] {
	base := tierCell("distance", "distance", 8, 3, 0.9, serving.ArrivalSpec{})
	hot := tierCell("telemetry", "traffic-aware", 8, 3, 0.9, serving.ArrivalSpec{})
	hot.Cfg.Telemetry = true
	hot.Cfg.Migrate = true
	return []cell[serving.Config]{base, hot}
}

// migrateChurnCells pairs cold failover with the spare-pool treatment
// on the churn smoke cell's conditions.
func migrateChurnCells() []cell[serving.ChurnConfig] {
	cold := churnCellOf("cold", "distance", 4, serving.FaultFast, churnSmokeRequests, 1)
	warm := churnCellOf("spares", "distance", 4, serving.FaultFast, churnSmokeRequests, 1)
	warm.Cfg.SparePool = true
	return []cell[serving.ChurnConfig]{cold, warm}
}

// MigrateResult is the assembled pairing: the serving comparison and
// the churn comparison, one table each.
type MigrateResult struct {
	Serving *ServingResult
	Churn   *ChurnResult
}

// String renders both comparison tables.
func (r *MigrateResult) String() string {
	return r.Serving.Table.String() + "\n\n" + r.Churn.Table.String()
}

// migrateSmokeSpec builds the registered spec: serving shards and churn
// shards side by side in one trial matrix, assembled into the paired
// tables.
func migrateSmokeSpec() harness.Spec {
	sCells := migrateServingCells()
	cCells := migrateChurnCells()
	return harness.Spec{
		Title:  "Migration & spares — telemetry-driven mechanisms vs their frozen baselines",
		Trials: append(servingSweep.trials(sCells), churnSweep.trials(cCells)...),
		Assemble: func(r *harness.Result) (harness.Artifact, error) {
			sv, err := servingSweep.assemble(r, sCells)
			if err != nil {
				return nil, err
			}
			ch, err := churnSweep.assemble(r, cCells)
			if err != nil {
				return nil, err
			}
			return &MigrateResult{Serving: sv, Churn: ch}, nil
		},
	}
}

// MigrateSmoke runs the paired acceptance cells.
func MigrateSmoke() *MigrateResult { return runRegistered("migrate-smoke").(*MigrateResult) }
