package core

import (
	"fmt"
	"sync"

	"pleroma/internal/dz"
	"pleroma/internal/openflow"
	"pleroma/internal/topo"
	"pleroma/internal/wire"
)

// This file implements the controller's append-only control-op journal
// (Ravana-style log-replay recovery). Every successful control operation —
// advertise, subscribe, unsubscribe, unadvertise, and rebuild-trees — is
// appended as a wire.Record carrying the controller's epoch and a monotone
// sequence number. A warm standby (see standby.go) replays snapshot +
// journal suffix to reconstruct the pre-crash state; snapshot-then-
// Truncate compacts the log.

// Journal is the sink control operations append to. Implementations must
// be safe for concurrent use with their read side (the controller appends
// from its owner's goroutine, but a standby may read from another).
type Journal interface {
	// Append adds one record. Records arrive with strictly increasing
	// sequence numbers within an epoch.
	Append(rec wire.Record) error
}

// ReplaySource is the read side of a journal: the records with sequence
// numbers greater than afterSeq, in order.
type ReplaySource interface {
	Records(afterSeq uint64) ([]wire.Record, error)
}

// MemJournal is the in-memory journal: an append-only slice of
// wire-encoded records guarded by a mutex. Records are stored encoded and
// decoded on read, so every journal round-trip exercises the codec a
// networked deployment would put on disk or on the replication channel.
type MemJournal struct {
	mu   sync.Mutex
	recs [][]byte
	// lastSeq is the highest sequence number ever appended (it survives
	// truncation, so compaction cannot roll sequence numbers back).
	lastSeq uint64
}

// NewMemJournal returns an empty in-memory journal.
func NewMemJournal() *MemJournal { return &MemJournal{} }

// Append encodes and stores one record. Sequence numbers must be strictly
// increasing; a regression indicates two live controllers writing the same
// journal and is rejected.
func (j *MemJournal) Append(rec wire.Record) error {
	b, err := wire.EncodeRecord(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if rec.Seq <= j.lastSeq {
		return fmt.Errorf("core: journal sequence %d not after %d", rec.Seq, j.lastSeq)
	}
	j.recs = append(j.recs, b)
	j.lastSeq = rec.Seq
	return nil
}

// Records returns the decoded records with Seq > afterSeq, in order.
func (j *MemJournal) Records(afterSeq uint64) ([]wire.Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]wire.Record, 0, len(j.recs))
	for _, b := range j.recs {
		rec, err := wire.DecodeRecord(b)
		if err != nil {
			return nil, fmt.Errorf("core: corrupt journal record: %w", err)
		}
		if rec.Seq <= afterSeq {
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

// Truncate drops every record with Seq <= upToSeq — the compaction step
// after a snapshot covering that prefix was taken. The sequence counter is
// unaffected, so later appends continue the numbering. The error return
// exists to satisfy CompactableJournal; the in-memory form cannot fail.
func (j *MemJournal) Truncate(upToSeq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	kept := j.recs[:0]
	for _, b := range j.recs {
		rec, err := wire.DecodeRecord(b)
		if err != nil || rec.Seq > upToSeq {
			kept = append(kept, b)
		}
	}
	// Zero the tail so truncated encodings are collectable.
	for i := len(kept); i < len(j.recs); i++ {
		j.recs[i] = nil
	}
	j.recs = kept
	return nil
}

// Len returns the number of live (non-truncated) records.
func (j *MemJournal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// LastSeq returns the highest sequence number ever appended.
func (j *MemJournal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// WithJournal makes the controller append every successful control
// operation to j. The journal, combined with periodic snapshots
// (EncodeSnapshot), is what a warm standby replays on takeover.
func WithJournal(j Journal) Option {
	return func(c *Controller) { c.journal = j }
}

// Epoch returns the controller's incarnation number (0 for a controller
// that never failed over).
func (c *Controller) Epoch() uint32 {
	return c.epoch
}

// JournalSeq returns the sequence number of the last control operation the
// controller journaled (or inherited through restore/replay).
func (c *Controller) JournalSeq() uint64 {
	return c.jseq
}

// SetEpoch sets the controller's incarnation number; Promote bumps it past
// every epoch observed in the snapshot and journal.
func (c *Controller) SetEpoch(e uint32) {
	c.epoch = e
}

// journalOp appends one successful control operation to the journal.
// Ops applied during replay are not re-appended (their
// records are already in the journal). An append failure surfaces as the
// operation's error: the network state has been reconfigured, but callers
// must know the op is not durable.
func (c *Controller) journalOp(op wire.Op, id string, ep endpoint, set dz.Set) error {
	if c.journal == nil || c.replaying {
		return nil
	}
	rec := wire.Record{
		Epoch:   c.epoch,
		Seq:     c.jseq + 1,
		Op:      op,
		ID:      id,
		Node:    uint32(ep.node),
		ViaPort: uint32(ep.viaPort),
		Set:     set,
	}
	if err := c.journal.Append(rec); err != nil {
		return fmt.Errorf("core: journal %s %q: %w", op, id, err)
	}
	c.jseq++
	c.inst.journalRecords.Inc()
	return nil
}

// Replay applies journal records with Seq > JournalSeq() in order,
// advancing the journal cursor and epoch watermark without re-appending.
// It returns the number of records applied. Replay is meant for a freshly
// created or restored controller that is not yet serving requests.
func (c *Controller) Replay(recs []wire.Record) (int, error) {
	c.replaying = true
	defer func() { c.replaying = false }()
	applied := 0
	for _, rec := range recs {
		if rec.Seq <= c.jseq {
			continue
		}
		if err := c.applyRecord(rec); err != nil {
			return applied, fmt.Errorf("core: replay record %d (%s %q): %w", rec.Seq, rec.Op, rec.ID, err)
		}
		c.jseq = rec.Seq
		if rec.Epoch > c.epoch {
			c.epoch = rec.Epoch
		}
		c.inst.journalReplayed.Inc()
		applied++
	}
	return applied, nil
}

// applyRecord dispatches one journal record to the corresponding control
// operation. Virtual clients are told apart by their nonzero border port.
func (c *Controller) applyRecord(rec wire.Record) error {
	node := topo.NodeID(rec.Node)
	port := openflow.PortID(rec.ViaPort)
	var err error
	switch rec.Op {
	case wire.OpAdvertise:
		if port != 0 {
			_, err = c.AdvertiseVirtual(rec.ID, node, port, rec.Set)
		} else {
			_, err = c.Advertise(rec.ID, node, rec.Set)
		}
	case wire.OpSubscribe:
		if port != 0 {
			_, err = c.SubscribeVirtual(rec.ID, node, port, rec.Set)
		} else {
			_, err = c.Subscribe(rec.ID, node, rec.Set)
		}
	case wire.OpUnsubscribe:
		_, err = c.Unsubscribe(rec.ID)
	case wire.OpUnadvertise:
		_, err = c.Unadvertise(rec.ID)
	case wire.OpReconfigure:
		_, err = c.RebuildTrees()
	default:
		err = fmt.Errorf("core: unknown journal op %q", rec.Op)
	}
	return err
}
