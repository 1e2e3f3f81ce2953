package monitor

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tenancy"
)

// TestSubMNShapeIsExclusive: an MN is flat or a sub-MN, never both. A
// sub-MN runs no recovery sweep, migration scan or admission gate: a
// delegated row it re-placed, migrated or preempted would leave the
// root's delegation table naming a backing that is gone. Whichever
// comes second panics.
func TestSubMNShapeIsExclusive(t *testing.T) {
	sub := func(m *Monitor) { m.StartRackBeat(1, 0, sim.Second) }
	for _, tc := range []struct {
		name        string
		first, then func(m *Monitor)
	}{
		{"recovery-on-sub", sub, (*Monitor).StartRecovery},
		{"migration-on-sub", sub, (*Monitor).StartMigration},
		{"sub-with-recovery", (*Monitor).StartRecovery, sub},
		{"sub-with-migration", (*Monitor).StartMigration, sub},
		{"sub-with-admission", func(m *Monitor) { m.Admission = tenancy.Default() }, sub},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newCluster(t, 1<<30).mn
			tc.first(m)
			defer func() {
				if recover() == nil {
					t.Error("accepted; want a panic")
				}
			}()
			tc.then(m)
		})
	}
}
