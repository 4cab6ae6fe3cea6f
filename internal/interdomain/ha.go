package interdomain

import (
	"fmt"
	"slices"

	"pleroma/internal/core"
	"pleroma/internal/netem"
)

// This file is the fabric's controller-HA surface: with WithHA every
// partition controller journals its control operations to an in-memory
// journal, SnapshotPartition takes (and compacts against) deterministic
// state snapshots, and Failover simulates a controller crash by discarding
// the live instance and promoting a warm standby from snapshot + journal.

// WithHA gives every partition controller an op journal, enabling
// SnapshotPartition, RestorePartition, and Failover.
func WithHA() Option {
	return func(f *Fabric) { f.ha = true }
}

// WithHAJournal enables HA with journals supplied by open — one per
// partition. The networked daemon uses it to hand every partition a
// file-backed core.FileJournal so controller state survives a process
// restart; tests can inject failing or instrumented journals the same way.
func WithHAJournal(open func(partition int) (core.CompactableJournal, error)) Option {
	return func(f *Fabric) {
		f.ha = true
		f.journalOpen = open
	}
}

// controllerOpts builds the option set of one partition's controller — the
// same set for the initial instance and for every standby promoted later,
// so a promoted controller is configured identically to the one it
// replaces.
func (f *Fabric) controllerOpts(partition int, journal core.CompactableJournal) []core.Option {
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
func (f *Fabric) Journal(partition int) (core.CompactableJournal, error) {
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
// a copy of the validated snapshot then replaces.
func (f *Fabric) RecoverPartition(partition int, snap []byte) (FailoverReport, error) {
	return f.takeover("recover", partition, slices.Clone(snap))
}

// takeover replaces the partition's controller with a standby promoted from
// snap (nil: the journal alone) plus the journal suffix: the standby
// replays, bumps the epoch, and resyncs switch ground truth. It retains
// snap once validated; verb names the caller in errors.
func (f *Fabric) takeover(verb string, partition int, snap []byte) (FailoverReport, error) {
	rep := FailoverReport{Partition: partition}
	s, ok := f.parts[partition]
	if !ok {
		return rep, fmt.Errorf("interdomain: unknown partition %d", partition)
	}
	if s.journal == nil {
		return rep, fmt.Errorf("interdomain: partition %d has no journal (fabric built without WithHA)", partition)
	}
	standby := core.NewStandby(f.g, f.prog, s.journal, f.controllerOpts(partition, nil)...)
	if snap != nil {
		if err := standby.ObserveSnapshot(snap); err != nil {
			return rep, fmt.Errorf("interdomain: %s partition %d: %w", verb, partition, err)
		}
		s.lastSnap = snap
	}
	ctl, prep, err := standby.Promote()
	if err != nil {
		return rep, fmt.Errorf("interdomain: %s partition %d: %w", verb, partition, err)
	}
	s.setController(ctl)
	rep.PromoteReport = prep
	f.obsFailovers.With(partition).Inc()
	f.obsEpoch.With(partition).Set(int64(prep.Epoch))
	return rep, nil
}

// RestorePartition replaces the partition's controller with one
// reconstructed from the snapshot, reattaches the journal, and resyncs the
// partition's switches against the restored canonical state.
func (f *Fabric) RestorePartition(partition int, snap []byte) error {
	s, ok := f.parts[partition]
	if !ok {
		return fmt.Errorf("interdomain: unknown partition %d", partition)
	}
	if s.journal == nil {
		return fmt.Errorf("interdomain: partition %d has no journal (fabric built without WithHA)", partition)
	}
	ctl, err := core.RestoreController(f.g, f.prog, snap, f.controllerOpts(partition, s.journal)...)
	if err != nil {
		return fmt.Errorf("interdomain: restore partition %d: %w", partition, err)
	}
	if _, err := ctl.ResyncAll(); err != nil {
		return fmt.Errorf("interdomain: restore partition %d: resync: %w", partition, err)
	}
	s.setController(ctl)
	return nil
}

// FailoverReport summarises one partition takeover.
type FailoverReport struct {
	Partition int
	core.PromoteReport
}

// Failover simulates a crash of the partition's active controller and
// promotes a warm standby in its place: the live instance is discarded
// unread (its in-memory state is lost, exactly as a process crash would
// lose it), and the standby rebuilds from the last snapshot plus the
// journal suffix, bumps the epoch, and anti-entropy-resyncs the inherited
// switches. The fabric's own forwarding state (virtual replicas, covering
// indexes) lives outside the controller and survives; replayed virtual
// client registrations reconstruct the same ids, so the replica maps stay
// valid.
func (f *Fabric) Failover(partition int) (FailoverReport, error) {
	var snap []byte
	if s, ok := f.parts[partition]; ok {
		snap = s.lastSnap
	}
	return f.takeover("failover", partition, snap)
}
