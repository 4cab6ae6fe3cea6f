package interdomain

import (
	"fmt"
	"slices"

	"pleroma/internal/core"
	"pleroma/internal/netem"
)

// This file is the fabric's controller-HA surface: with WithHA every
// partition controller journals its control operations, SnapshotPartition
// takes (and compacts against) deterministic state snapshots, and
// Failover, RecoverPartition and RestorePartition rebuild a controller from
// a snapshot plus the journal suffix (core.Rebuild).

// WithHA gives every partition controller an op journal, enabling
// SnapshotPartition, RestorePartition, Failover and RecoverPartition. open
// supplies partition p's journal — the networked daemon opens files
// (core.OpenFileJournal) so controller state survives a process restart;
// nil keeps the journals in memory. Close closes them.
func WithHA(open func(partition int) (*core.Journal, error)) Option {
	if open == nil {
		open = func(int) (*core.Journal, error) { return core.NewMemJournal(), nil }
	}
	return func(f *Fabric) { f.journalOpen = open }
}

// controllerOpts builds the option set of one partition's controller — the
// same set for the initial instance and for every one rebuilt later, so a
// rebuilt controller is configured identically to the one it replaces.
func (f *Fabric) controllerOpts(partition int, journal *core.Journal) []core.Option {
	opts := append([]core.Option{
		core.WithHostAddr(netem.HostAddr),
		core.WithPartition(partition),
	}, f.ctlOpts...)
	if journal != nil {
		opts = append(opts, core.WithJournal(journal))
	}
	return opts
}

// Journal returns the op journal of one partition (nil without WithHA).
func (f *Fabric) Journal(partition int) (*core.Journal, error) {
	s, ok := f.parts[partition]
	if !ok {
		return nil, fmt.Errorf("interdomain: unknown partition %d", partition)
	}
	return s.journal, nil
}

// SnapshotPartition encodes the partition controller's state, retains the
// snapshot for the partition's warm standby, and compacts the journal:
// records the snapshot covers are truncated. It returns the snapshot.
// Callers that persist snapshots externally should instead use
// EncodeSnapshotPartition, make the snapshot durable, and only then
// CompactPartition — truncating first opens a state-loss window if the
// snapshot never reaches stable storage.
func (f *Fabric) SnapshotPartition(partition int) ([]byte, error) {
	snap, seq, err := f.EncodeSnapshotPartition(partition)
	if err != nil {
		return nil, err
	}
	if err := f.CompactPartition(partition, seq); err != nil {
		return nil, err
	}
	return snap, nil
}

// EncodeSnapshotPartition encodes the partition controller's state and
// retains it for the warm standby WITHOUT compacting the journal. It
// returns the snapshot and the journal sequence number it covers; pass
// that seq to CompactPartition once the snapshot is durable.
func (f *Fabric) EncodeSnapshotPartition(partition int) ([]byte, uint64, error) {
	s, ok := f.parts[partition]
	if !ok {
		return nil, 0, fmt.Errorf("interdomain: unknown partition %d", partition)
	}
	if s.journal == nil {
		return nil, 0, fmt.Errorf("interdomain: partition %d has no journal (fabric built without WithHA)", partition)
	}
	snap, err := s.ctl.EncodeSnapshot()
	if err != nil {
		return nil, 0, fmt.Errorf("interdomain: snapshot partition %d: %w", partition, err)
	}
	s.lastSnap = append([]byte(nil), snap...)
	return snap, s.ctl.JournalSeq(), nil
}

// CompactPartition truncates the partition journal's records up to and
// including upToSeq — the compaction step of a snapshot, split out so a
// caller can defer it until the snapshot is durably persisted.
func (f *Fabric) CompactPartition(partition int, upToSeq uint64) error {
	s, ok := f.parts[partition]
	if !ok {
		return fmt.Errorf("interdomain: unknown partition %d", partition)
	}
	if s.journal == nil {
		return fmt.Errorf("interdomain: partition %d has no journal (fabric built without WithHA)", partition)
	}
	if err := s.journal.Truncate(upToSeq); err != nil {
		return fmt.Errorf("interdomain: compact journal of partition %d: %w", partition, err)
	}
	return nil
}

// DigestPartition returns the deterministic digest of the partition
// controller's canonical state (core.SnapshotDigest over a fresh
// EncodeSnapshot). Unlike SnapshotPartition it works without WithHA and has
// no compaction side effects, so two systems can compare control-plane
// state byte-for-byte — the loopback equivalence test's backbone.
func (f *Fabric) DigestPartition(partition int) ([]byte, error) {
	s, ok := f.parts[partition]
	if !ok {
		return nil, fmt.Errorf("interdomain: unknown partition %d", partition)
	}
	snap, err := s.ctl.EncodeSnapshot()
	if err != nil {
		return nil, fmt.Errorf("interdomain: digest partition %d: %w", partition, err)
	}
	d, err := core.SnapshotDigest(snap)
	if err != nil {
		return nil, fmt.Errorf("interdomain: digest partition %d: %w", partition, err)
	}
	return d[:], nil
}

// RecoverPartition rebuilds the partition's controller from an externally
// persisted snapshot (possibly nil for journal-only recovery) plus the
// partition journal's suffix — the daemon's restart-with-state path. It is
// Failover driven by on-disk state instead of the retained lastSnap, which
// a copy of the snapshot then replaces.
func (f *Fabric) RecoverPartition(partition int, snap []byte) (FailoverReport, error) {
	rep, err := f.rebuild("recover", partition, snap, true)
	if err == nil && snap != nil {
		f.parts[partition].lastSnap = slices.Clone(snap)
	}
	return rep, err
}

// RestorePartition replaces the partition's controller with one rebuilt
// from the snapshot plus the journal records past it, without an epoch
// bump, and resyncs the partition's switches against the rebuilt state. A
// snapshot older than the journal's last compaction is refused.
func (f *Fabric) RestorePartition(partition int, snap []byte) error {
	_, err := f.rebuild("restore", partition, snap, false)
	return err
}

// rebuild replaces the partition's controller with one core.Rebuild makes
// from snap (nil: the journal alone) and the partition journal; takeover
// makes it a new incarnation, counted as a failover. verb names the caller
// in errors.
func (f *Fabric) rebuild(verb string, partition int, snap []byte, takeover bool) (FailoverReport, error) {
	rep := FailoverReport{Partition: partition}
	s, ok := f.parts[partition]
	if !ok {
		return rep, fmt.Errorf("interdomain: unknown partition %d", partition)
	}
	if s.journal == nil {
		return rep, fmt.Errorf("interdomain: partition %d has no journal (fabric built without WithHA)", partition)
	}
	ctl, prep, err := core.Rebuild(f.g, f.prog, snap, s.journal, takeover, f.controllerOpts(partition, nil)...)
	if err != nil {
		return rep, fmt.Errorf("interdomain: %s partition %d: %w", verb, partition, err)
	}
	s.setController(ctl)
	rep.PromoteReport = prep
	if takeover {
		f.obsFailovers.With(partition).Inc()
		f.obsEpoch.With(partition).Set(int64(prep.Epoch))
	}
	return rep, nil
}

// FailoverReport summarises one partition takeover.
type FailoverReport struct {
	Partition int
	core.PromoteReport
}

// Failover simulates a crash of the partition's active controller and
// rebuilds one in its place: the live instance is discarded unread (its
// in-memory state is lost, exactly as a process crash would lose it), and
// its successor rebuilds from the last snapshot plus the journal suffix,
// bumps the epoch, and anti-entropy-resyncs the inherited switches. The
// fabric's own forwarding state (virtual replicas, covering indexes) lives
// outside the controller and survives; replayed virtual client
// registrations reconstruct the same ids, so the replica maps stay valid.
func (f *Fabric) Failover(partition int) (FailoverReport, error) {
	var snap []byte
	if s, ok := f.parts[partition]; ok {
		snap = s.lastSnap
	}
	return f.rebuild("failover", partition, snap, true)
}
