package core

import (
	"encoding/binary"
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

// MemJournal is the in-memory journal: wire-encoded records guarded by a
// mutex. Records are stored encoded and decoded on read, so every journal
// round-trip exercises the codec a networked deployment would put on disk
// or on the replication channel.
//
// The records are packed back to back into chunks of memChunkSize bytes,
// each as [length uvarint][record]; a record that does not fit the last
// chunk starts the next (one larger than a chunk gets a chunk of its size),
// so an append allocates only when it opens a chunk, and what the chunks
// hold beyond their records is the last chunk's free tail, the dead prefix
// of the first one (Truncate), and less than one record per chunk.
type MemJournal struct {
	mu     sync.Mutex
	chunks [][]byte
	head   int    // offset of the first live record in chunks[0]
	n      int    // live records
	enc    []byte // Append's scratch: the record it encodes
	// lastSeq is the highest sequence number ever appended (it survives
	// truncation, so compaction cannot roll sequence numbers back).
	lastSeq uint64
}

// memChunkSize is the size of a MemJournal chunk: some thousand records of
// a control operation.
const memChunkSize = 64 << 10

// NewMemJournal returns an empty in-memory journal.
func NewMemJournal() *MemJournal { return &MemJournal{} }

// Append encodes and stores one record. Sequence numbers must be strictly
// increasing; a regression indicates two live controllers writing the same
// journal and is rejected.
func (j *MemJournal) Append(rec wire.Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	b, err := wire.AppendRecord(j.enc[:0], rec)
	if err != nil {
		return err
	}
	j.enc = b
	if rec.Seq <= j.lastSeq {
		return fmt.Errorf("core: journal sequence %d not after %d", rec.Seq, j.lastSeq)
	}
	need := binary.MaxVarintLen64 + len(b)
	if last := len(j.chunks) - 1; last < 0 || cap(j.chunks[last])-len(j.chunks[last]) < need {
		j.chunks = append(j.chunks, make([]byte, 0, max(memChunkSize, need)))
	}
	last := &j.chunks[len(j.chunks)-1]
	*last = append(binary.AppendUvarint(*last, uint64(len(b))), b...)
	j.n++
	j.lastSeq = rec.Seq
	return nil
}

// record returns the encoding of the record at off in chunk, and the offset
// of the next.
func record(chunk []byte, off int) ([]byte, int) {
	n, w := binary.Uvarint(chunk[off:])
	off += w
	return chunk[off : off+int(n)], off + int(n)
}

// Records returns the decoded records with Seq > afterSeq, in order.
func (j *MemJournal) Records(afterSeq uint64) ([]wire.Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]wire.Record, 0, j.n)
	off := j.head
	for _, chunk := range j.chunks {
		for off < len(chunk) {
			var b []byte
			b, off = record(chunk, off)
			rec, err := wire.DecodeRecord(b)
			if err != nil {
				return nil, fmt.Errorf("core: corrupt journal record: %w", err)
			}
			if rec.Seq > afterSeq {
				out = append(out, rec)
			}
		}
		off = 0
	}
	return out, nil
}

// Truncate drops every record with Seq <= upToSeq — the compaction step
// after a snapshot covering that prefix was taken. Sequence numbers
// increase along the journal, so that is a prefix; a chunk is released
// once all its records are. The sequence counter is unaffected, so later
// appends continue the numbering. The error return exists to satisfy
// CompactableJournal; the in-memory form cannot fail.
func (j *MemJournal) Truncate(upToSeq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.n > 0 {
		b, next := record(j.chunks[0], j.head)
		if rec, err := wire.DecodeRecord(b); err != nil || rec.Seq > upToSeq {
			break
		}
		j.head, j.n = next, j.n-1
		if j.head == len(j.chunks[0]) {
			j.chunks[0] = nil
			j.chunks, j.head = j.chunks[1:], 0
		}
	}
	return nil
}

// Len returns the number of live (non-truncated) records.
func (j *MemJournal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
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
