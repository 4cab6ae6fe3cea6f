package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
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
// sequence number. Rebuild restores a snapshot and replays the journal
// suffix to reconstruct the controller's state; snapshot-then-Truncate
// compacts the log.

// Journal is the control-op journal: wire-encoded records in memory and,
// when opened on a file (OpenFileJournal), the same records framed on disk.
// Records are stored encoded and decoded on read, so every journal
// round-trip exercises the codec a networked deployment puts on disk. It is
// safe for concurrent use: the controller appends from its owner's
// goroutine, and a scrape or a test may read from another.
//
// The records are packed back to back into chunks of memChunkSize bytes,
// each as [length uvarint][record]; a record that does not fit the last
// chunk starts the next (one larger than a chunk gets a chunk of its size),
// so an append allocates only when it opens a chunk or grows its encode
// buffer, and what the chunks hold beyond their records is the last chunk's
// free tail, the dead prefix of the first one (Truncate), and less than one
// record per chunk.
//
// On disk the journal is a sequence of self-checking frames:
//
//	[len u32 BE][payload = wire.Record][crc32 u32 BE over payload]
//
// Append writes one frame and fsyncs before the record enters memory, so
// an acknowledged control op survives a crash; opening keeps the longest
// prefix of valid frames, so a crash mid-append loses at most the
// unacknowledged tail, never a committed record.
type Journal struct {
	mu     sync.Mutex
	chunks [][]byte
	head   int    // offset of the first live record in chunks[0]
	n      int    // live records
	enc    []byte // Append's scratch: the record it encodes
	frame  []byte // Append's scratch: the record's frame, for the file
	// lastSeq is the highest sequence number ever appended (it survives
	// truncation, so compaction cannot roll sequence numbers back).
	lastSeq uint64
	// path names the journal's file ("" in memory only); f is nil once
	// Close has closed it.
	path string
	f    *os.File
}

// memChunkSize is the size of a journal chunk: some thousand records of a
// control operation.
const memChunkSize = 64 << 10

// maxFrameRecord bounds a frame's payload; a larger length is a torn or
// corrupt frame.
const maxFrameRecord = 1 << 20

// NewMemJournal returns an empty in-memory journal.
func NewMemJournal() *Journal { return &Journal{} }

// OpenFileJournal opens (creating if absent) the journal file at path and
// recovers its records. The longest prefix of valid frames is kept — a
// frame is valid when its length is in range, its CRC matches and its
// payload is a record as Append encodes it — and the file is truncated
// after it, matching what a crashed append could have left behind. A
// sequence number that does not increase refuses the file.
func OpenFileJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: open journal: %w", err)
	}
	j := &Journal{path: path, f: f}
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// recover loads the valid frames of j.f into memory and truncates the file
// after the last of them.
func (j *Journal) recover() error {
	data, err := io.ReadAll(j.f)
	if err != nil {
		return fmt.Errorf("core: read journal: %w", err)
	}
	valid := 0
	for len(data)-valid >= 8 {
		b := data[valid:]
		n := int(binary.BigEndian.Uint32(b))
		if n == 0 || n > maxFrameRecord || len(b) < 4+n+4 {
			break
		}
		payload := b[4 : 4+n]
		if binary.BigEndian.Uint32(b[4+n:]) != crc32.ChecksumIEEE(payload) {
			break
		}
		rec, err := wire.DecodeRecord(payload)
		if err != nil {
			break
		}
		if j.enc, err = wire.AppendRecord(j.enc[:0], rec); err != nil || !bytes.Equal(j.enc, payload) {
			break
		}
		if rec.Seq <= j.lastSeq {
			return fmt.Errorf("core: journal %s: sequence %d not after %d", j.path, rec.Seq, j.lastSeq)
		}
		j.store(payload, rec.Seq)
		valid += 4 + n + 4
	}
	if valid != len(data) {
		if err := j.f.Truncate(int64(valid)); err != nil {
			return fmt.Errorf("core: truncate torn journal tail: %w", err)
		}
	}
	return nil
}

// appendFrame appends the file frame of one encoded record to dst.
func appendFrame(dst, rec []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec)))
	dst = append(dst, rec...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(rec))
}

// checkOpen refuses a write to a journal whose file was closed.
func (j *Journal) checkOpen() error {
	if j.path != "" && j.f == nil {
		return fmt.Errorf("core: journal %s is closed", j.path)
	}
	return nil
}

// Append encodes and stores one record, first framing it to the file and
// syncing when the journal has one. Sequence numbers must be strictly
// increasing; a regression indicates two live controllers writing the same
// journal and is rejected.
func (j *Journal) Append(rec wire.Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	b, err := wire.AppendRecord(j.enc[:0], rec)
	if err != nil {
		return err
	}
	j.enc = b
	if err := j.checkOpen(); err != nil {
		return err
	}
	if rec.Seq <= j.lastSeq {
		return fmt.Errorf("core: journal sequence %d not after %d", rec.Seq, j.lastSeq)
	}
	if j.f != nil {
		j.frame = appendFrame(j.frame[:0], b)
		if _, err := j.f.Write(j.frame); err != nil {
			return fmt.Errorf("core: append journal record: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("core: sync journal: %w", err)
		}
	}
	j.store(b, rec.Seq)
	return nil
}

// store adds the encoding b of the record numbered seq to memory.
func (j *Journal) store(b []byte, seq uint64) {
	need := binary.MaxVarintLen64 + len(b)
	if last := len(j.chunks) - 1; last < 0 || cap(j.chunks[last])-len(j.chunks[last]) < need {
		j.chunks = append(j.chunks, make([]byte, 0, max(memChunkSize, need)))
	}
	last := &j.chunks[len(j.chunks)-1]
	*last = append(binary.AppendUvarint(*last, uint64(len(b))), b...)
	j.n++
	j.lastSeq = seq
}

// record returns the encoding of the record at off in chunk, and the offset
// of the next.
func record(chunk []byte, off int) ([]byte, int) {
	n, w := binary.Uvarint(chunk[off:])
	off += w
	return chunk[off : off+int(n)], off + int(n)
}

// each calls fn with the encoding of every record from offset head of
// chunks[0] on, in order, until fn returns false.
func each(chunks [][]byte, head int, fn func(b []byte) bool) {
	off := head
	for _, chunk := range chunks {
		for off < len(chunk) {
			var b []byte
			b, off = record(chunk, off)
			if !fn(b) {
				return
			}
		}
		off = 0
	}
}

// Records returns the decoded records with Seq > afterSeq, in order.
func (j *Journal) Records(afterSeq uint64) ([]wire.Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]wire.Record, 0, j.n)
	var err error
	each(j.chunks, j.head, func(b []byte) bool {
		var rec wire.Record
		if rec, err = wire.DecodeRecord(b); err != nil {
			return false
		}
		if rec.Seq > afterSeq {
			out = append(out, rec)
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("core: corrupt journal record: %w", err)
	}
	return out, nil
}

// Truncate drops every record with Seq <= upToSeq — the compaction step
// after a snapshot covering that prefix was taken. Sequence numbers
// increase along the journal, so that is a prefix; a chunk is released
// once all its records are. A file is rewritten with the records left
// through a temp file and a rename, so a crash during compaction leaves
// either the old or the new file, never a mix. The sequence counter is
// unaffected, so later appends continue the numbering.
func (j *Journal) Truncate(upToSeq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.checkOpen(); err != nil {
		return err
	}
	chunks, head, n := j.chunks, j.head, j.n
	for n > 0 {
		b, next := record(chunks[0], head)
		if rec, err := wire.DecodeRecord(b); err != nil || rec.Seq > upToSeq {
			break
		}
		head, n = next, n-1
		if head == len(chunks[0]) {
			chunks, head = chunks[1:], 0
		}
	}
	if n == j.n {
		return nil
	}
	if j.f != nil {
		if err := j.rewrite(chunks, head); err != nil {
			return fmt.Errorf("core: compact journal: %w", err)
		}
	}
	clear(j.chunks[:len(j.chunks)-len(chunks)])
	j.chunks, j.head, j.n = chunks, head, n
	return nil
}

// rewrite replaces the journal file with the frames of the records from
// offset head of chunks[0] on. The temp file, renamed over the journal,
// stays open as its file: appends continue at its end.
func (j *Journal) rewrite(chunks [][]byte, head int) error {
	var frames []byte
	each(chunks, head, func(b []byte) bool {
		frames = appendFrame(frames, b)
		return true
	})
	tmp, err := os.CreateTemp(filepath.Dir(j.path), filepath.Base(j.path)+".compact-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(frames)
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), j.path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	j.f.Close()
	j.f = tmp
	return nil
}

// LastSeq returns the highest sequence number ever appended (or recovered).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// Close closes the journal's file; further appends and compactions fail,
// and the records stay readable. A no-op in memory only.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// WithJournal makes the controller append every successful control
// operation to j. The journal, combined with periodic snapshots
// (EncodeSnapshot), is what Rebuild replays.
func WithJournal(j *Journal) Option {
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

// PromoteReport summarises one Rebuild.
type PromoteReport struct {
	// FromSnapshot is true when a snapshot was restored (as opposed to
	// rebuilding purely from the journal).
	FromSnapshot bool
	// SnapshotSeq is the journal sequence the restored snapshot covered.
	SnapshotSeq uint64
	// Replayed counts journal records applied on top.
	Replayed int
	// Epoch is the rebuilt controller's incarnation number.
	Epoch uint32
	// Resync reports the anti-entropy pass over the inherited switches.
	Resync ResyncReport
}

// Rebuild reconstructs a partition's controller at the logical state the
// journal j holds: it restores snap (nil: starts fresh), replays the
// records of j past it, attaches j, and anti-entropy-resyncs the switches
// it inherits, so whatever they actually hold is reconciled with the
// canonical state. A journal compacted past the snapshot is refused:
// replay would silently skip operations. With takeover the controller is a
// new incarnation, its epoch one past every epoch in the snapshot and the
// journal (a failover or a restart); without, it keeps that epoch (a
// restore of the same incarnation). opts must match the configuration of
// the controller it replaces, without a journal. The snapshot is validated
// once and not kept.
func Rebuild(g *topo.Graph, prog FlowProgrammer, snap []byte, j *Journal, takeover bool, opts ...Option) (*Controller, PromoteReport, error) {
	var (
		rep PromoteReport
		ctl *Controller
		err error
	)
	if snap != nil {
		ctl, err = RestoreController(g, prog, snap, opts...)
		rep.FromSnapshot = true
	} else {
		ctl, err = NewController(g, prog, opts...)
	}
	if err != nil {
		return nil, rep, fmt.Errorf("core: rebuild: %w", err)
	}
	seq := ctl.JournalSeq()
	rep.SnapshotSeq = seq
	recs, err := j.Records(seq)
	if err != nil {
		return nil, rep, fmt.Errorf("core: rebuild: read journal: %w", err)
	}
	if j.LastSeq() > seq && (len(recs) == 0 || recs[0].Seq > seq+1) {
		return nil, rep, fmt.Errorf("core: rebuild: journal compacted past seq %d, which the state covers; snapshot required", seq)
	}
	if rep.Replayed, err = ctl.Replay(recs); err != nil {
		return nil, rep, fmt.Errorf("core: rebuild: %w", err)
	}
	if takeover {
		ctl.epoch++
	}
	rep.Epoch = ctl.epoch
	ctl.journal = j
	if rep.Resync, err = ctl.ResyncAll(); err != nil {
		return nil, rep, fmt.Errorf("core: rebuild: resync: %w", err)
	}
	return ctl, rep, nil
}
