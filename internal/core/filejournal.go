package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"pleroma/internal/wire"
)

// CompactableJournal is the full journal surface the HA machinery needs:
// the controller's append sink, the standby's replay source, and the
// compaction/inspection hooks SnapshotPartition drives. MemJournal and
// FileJournal both implement it.
type CompactableJournal interface {
	Journal
	ReplaySource
	// Truncate drops every record with Seq <= upToSeq after a snapshot
	// covering that prefix was taken. Sequence numbering is unaffected.
	Truncate(upToSeq uint64) error
	// LastSeq returns the highest sequence number ever appended.
	LastSeq() uint64
	// Len returns the number of live (non-truncated) records.
	Len() int
}

var (
	_ CompactableJournal = (*MemJournal)(nil)
	_ CompactableJournal = (*FileJournal)(nil)
)

// FileJournal is the durable journal a pleroma-d daemon appends to so a
// restarted process can rebuild controller state from snapshot + journal
// suffix. On-disk format is a sequence of self-checking frames:
//
//	[len u32 BE][payload = wire.Record][crc32 u32 BE over payload]
//
// Append writes one frame and fsyncs before reporting success, so an
// acknowledged control op survives a crash. Open scans the file and
// truncates at the first incomplete or corrupt frame — a crash mid-append
// loses at most the unacknowledged tail, never a committed record.
type FileJournal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	recs    [][]byte // decoded-frame payloads, mirrors the file
	lastSeq uint64
}

const fileJournalMaxRecord = 1 << 20

// OpenFileJournal opens (creating if absent) the journal at path and
// recovers its contents. A torn final frame — short header, short payload,
// or CRC mismatch — is discarded and the file truncated to the last
// complete record, matching what a crashed append could have left behind.
func OpenFileJournal(path string) (*FileJournal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: open journal: %w", err)
	}
	j := &FileJournal{path: path, f: f}
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// recover scans the frames in j.f, populating j.recs/j.lastSeq and
// truncating the file after the last valid frame.
func (j *FileJournal) recover() error {
	data, err := io.ReadAll(j.f)
	if err != nil {
		return fmt.Errorf("core: read journal: %w", err)
	}
	valid := 0
	for len(data)-valid >= 8 {
		b := data[valid:]
		n := int(binary.BigEndian.Uint32(b))
		if n == 0 || n > fileJournalMaxRecord || len(b) < 4+n+4 {
			break // torn or nonsense frame: stop at the last good record
		}
		payload := b[4 : 4+n]
		if binary.BigEndian.Uint32(b[4+n:]) != crc32.ChecksumIEEE(payload) {
			break
		}
		rec, err := wire.DecodeRecord(payload)
		if err != nil {
			break
		}
		if rec.Seq <= j.lastSeq {
			return fmt.Errorf("core: journal %s: sequence %d not after %d", j.path, rec.Seq, j.lastSeq)
		}
		j.recs = append(j.recs, append([]byte(nil), payload...))
		j.lastSeq = rec.Seq
		valid += 4 + n + 4
	}
	if valid != len(data) {
		if err := j.f.Truncate(int64(valid)); err != nil {
			return fmt.Errorf("core: truncate torn journal tail: %w", err)
		}
	}
	if _, err := j.f.Seek(int64(valid), io.SeekStart); err != nil {
		return fmt.Errorf("core: seek journal: %w", err)
	}
	return nil
}

// Append encodes rec, writes one CRC frame, and fsyncs. Sequence numbers
// must be strictly increasing, as with MemJournal.
func (j *FileJournal) Append(rec wire.Record) error {
	payload, err := wire.AppendRecord(nil, rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("core: journal %s is closed", j.path)
	}
	if rec.Seq <= j.lastSeq {
		return fmt.Errorf("core: journal sequence %d not after %d", rec.Seq, j.lastSeq)
	}
	frame := make([]byte, 0, 8+len(payload))
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("core: append journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("core: sync journal: %w", err)
	}
	j.recs = append(j.recs, payload)
	j.lastSeq = rec.Seq
	return nil
}

// Records returns the decoded records with Seq > afterSeq, in order.
func (j *FileJournal) Records(afterSeq uint64) ([]wire.Record, error) {
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

// Truncate compacts the on-disk log to the records with Seq > upToSeq by
// writing them to a temp file and renaming it over the journal, so a crash
// during compaction leaves either the old or the new file, never a mix.
func (j *FileJournal) Truncate(upToSeq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("core: journal %s is closed", j.path)
	}
	kept := make([][]byte, 0, len(j.recs))
	for _, b := range j.recs {
		rec, err := wire.DecodeRecord(b)
		if err != nil || rec.Seq > upToSeq {
			kept = append(kept, b)
		}
	}
	if len(kept) == len(j.recs) {
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), filepath.Base(j.path)+".compact-*")
	if err != nil {
		return fmt.Errorf("core: compact journal: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	for _, payload := range kept {
		frame := make([]byte, 0, 8+len(payload))
		frame = binary.BigEndian.AppendUint32(frame, uint32(len(payload)))
		frame = append(frame, payload...)
		frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			return fmt.Errorf("core: compact journal: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: compact journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: compact journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("core: compact journal: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("core: reopen compacted journal: %w", err)
	}
	j.f.Close()
	j.f = f
	j.recs = kept
	return nil
}

// Len returns the number of live (non-truncated) records.
func (j *FileJournal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// LastSeq returns the highest sequence number ever appended (or recovered).
func (j *FileJournal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// Close flushes and closes the underlying file. Further appends fail.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
