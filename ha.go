package pleroma

import (
	"fmt"

	"pleroma/internal/core"
	"pleroma/internal/interdomain"
)

// WithJournal enables controller high availability: every partition
// controller appends its control ops (advertise, subscribe, and their
// inverses, plus reconfigurations) to an in-memory journal, and the
// System gains a Snapshot/Restore/Failover surface. Snapshotting a
// partition compacts its journal; Failover builds a warm standby from
// the last snapshot plus the journal suffix, promotes it under a fresh
// epoch, and anti-entropy-resyncs the inherited switches.
func WithJournal() Option { return func(c *config) { c.journal = true } }

// FailoverReport describes one warm-standby takeover.
type FailoverReport = interdomain.FailoverReport

// SnapshotDigest returns the SHA-256 digest a snapshot carries in its
// trailer, after validating the header. Two snapshots of equivalent
// controller state are byte-identical, so digests are directly
// comparable.
func SnapshotDigest(snap []byte) ([32]byte, error) {
	return core.SnapshotDigest(snap)
}

// unready takes the system out of readiness while a controller is being
// replaced — until the swap has resynchronised the switches, the partition's
// flow tables are not known to match any controller's state — and returns
// the function that ends the window. A closed system stays unready.
func (s *System) unready() (done func()) {
	was := s.ready.Swap(false)
	return func() { s.ready.Store(was) }
}

// Partitions returns the managed partition ids, ascending.
func (s *System) Partitions() []int { return s.fab.Partitions() }

// Snapshot serialises the partition's controller state to a
// deterministic, digest-trailed byte stream and compacts the
// partition's journal up to the snapshot's sequence number. Requires
// WithJournal.
func (s *System) Snapshot(partition int) ([]byte, error) {
	if !s.cfg.journal {
		return nil, fmt.Errorf("pleroma: Snapshot requires WithJournal")
	}
	return s.fab.SnapshotPartition(partition)
}

// Restore replaces the partition's controller with one reconstructed
// from the snapshot plus the journal records past it, without an epoch
// bump, then resynchronises its switches against the restored desired
// state. A snapshot older than the journal's
// last compaction is refused. Requires WithJournal.
func (s *System) Restore(partition int, snap []byte) error {
	if !s.cfg.journal {
		return fmt.Errorf("pleroma: Restore requires WithJournal")
	}
	defer s.unready()()
	return s.fab.RestorePartition(partition, snap)
}

// Failover simulates the loss of the partition's active controller: a
// warm standby replays the last snapshot plus the journal suffix,
// takes over under a bumped epoch, and anti-entropy-resyncs the
// inherited switches so any flows the dead controller installed after
// its last journal flush are reconciled. Requires WithJournal.
func (s *System) Failover(partition int) (FailoverReport, error) {
	if !s.cfg.journal {
		return FailoverReport{}, fmt.Errorf("pleroma: Failover requires WithJournal")
	}
	defer s.unready()()
	return s.fab.Failover(partition)
}
