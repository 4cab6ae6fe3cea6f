package experiments

import (
	"fmt"

	"pleroma"
	"pleroma/internal/metrics"
	"pleroma/internal/obs"
	"pleroma/internal/space"
)

// RunExtHAFailover measures controller takeover along the Ravana-style
// snapshot/journal trade-off: the same seeded churn workload runs against
// a journaling controller under three checkpoint cadences (never, coarse,
// fine), the active controller then "crashes", and a warm standby
// promotes from the last snapshot plus the journal suffix. Tighter
// cadences shrink the replayed suffix at the cost of more snapshot work;
// in every configuration the promoted controller must verify clean
// against the inherited switches, and the takeover resync ships zero
// repairs because replay rebuilds exactly the crashed controller's
// canonical state.
func RunExtHAFailover(cfg Config) ([]*metrics.Table, error) {
	ops := pick(cfg, 60, 400)
	// The +1 offsets keep the cadence from dividing the op count exactly,
	// so the crash always strands a non-empty journal suffix to replay.
	cadences := []struct {
		label string
		every int // snapshot every n mutations; 0 = never
	}{
		{"never", 0},
		{"coarse", ops/2 + 1},
		{"fine", ops/8 + 1},
	}

	table := &metrics.Table{
		Title: "Extension: controller failover — snapshot cadence vs. takeover replay",
		Columns: []string{"snapshot-cadence", "mutations", "snapshots",
			"journal-at-crash", "from-snapshot", "replayed", "takeover-repairs",
			"verified", "state-digest"},
	}
	for _, c := range cadences {
		row, err := haFailoverRun(cfg.Seed, ops, c.every)
		if err != nil {
			return nil, fmt.Errorf("experiments: ha failover cadence %s: %w", c.label, err)
		}
		table.AddRow(c.label, row.mutations, row.snapshots, row.journalAtCrash,
			row.takeover.FromSnapshot, row.takeover.Replayed, row.takeover.Resync.Repaired(),
			row.verified, row.digest)
	}
	return []*metrics.Table{table}, nil
}

// haFailoverTally is one row of the failover table.
type haFailoverTally struct {
	mutations                 uint64
	snapshots, journalAtCrash int
	takeover                  pleroma.FailoverReport
	verified                  bool
	digest                    string
}

// haFailoverRun churns one journaling deployment (one seeded stream, so
// the operation sequence is a pure function of the seed), snapshots its
// partition every `every` mutations, crashes the partition's controller,
// and promotes the warm standby. The returned digest fingerprints the
// promoted control plane's state (System.StateDigest): identical across
// cadences (replay converges on the same state no matter how it is split
// between snapshot and journal) and across runs of the same seed.
func haFailoverRun(seed int64, ops, every int) (*haFailoverTally, error) {
	sch, err := space.UniformSchema(fig7bDims)
	if err != nil {
		return nil, err
	}
	sys, err := newSystem(sch, pleroma.WithJournal(), pleroma.WithObservability(0))
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	part := sys.Partitions()[0]
	journaled := func() int { return int(sys.Metrics().Total(obs.MJournalRecords)) }

	// Snapshotting compacts the journal, so the replayed suffix shrinks
	// with cadence: it holds the records appended since the last snapshot.
	var snapshots, mutations, atSnapshot int
	checkpoint := func() error {
		mutations++
		if every <= 0 || mutations%every != 0 {
			return nil
		}
		if _, err := sys.Snapshot(part); err != nil {
			return err
		}
		snapshots++
		atSnapshot = journaled()
		return nil
	}
	stats, err := churn(sys, seed, ops, checkpoint)
	if err != nil {
		return nil, err
	}
	journalAtCrash := journaled() - atSnapshot

	// Crash and take over: the live controller is discarded unread.
	takeover, err := sys.Failover(part)
	if err != nil {
		return nil, err
	}
	d, err := sys.StateDigest()
	if err != nil {
		return nil, err
	}
	return &haFailoverTally{
		mutations:      stats.Mutations(),
		snapshots:      snapshots,
		journalAtCrash: journalAtCrash,
		takeover:       takeover,
		verified:       sys.VerifyTables() == nil,
		digest:         fmt.Sprintf("%x", d[:8]),
	}, nil
}
