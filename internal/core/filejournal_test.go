package core_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/wire"
)

func fjRecord(seq uint64, id string) wire.Record {
	return wire.Record{
		Epoch: 1, Seq: seq, Op: wire.OpSubscribe, ID: id, Node: 3,
		Set: dz.NewSet(dz.Expr("0101")),
	}
}

func TestFileJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "part0.journal")
	j, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := j.Append(fjRecord(seq, "s")); err != nil {
			t.Fatal(err)
		}
	}
	if j.Len() != 5 || j.LastSeq() != 5 {
		t.Fatalf("Len=%d LastSeq=%d, want 5/5", j.Len(), j.LastSeq())
	}
	if err := j.Append(fjRecord(3, "dup")); err == nil {
		t.Fatal("sequence regression accepted")
	}
	recs, err := j.Records(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Seq != 3 || recs[2].Seq != 5 {
		t.Fatalf("Records(2) = %+v, want seqs 3..5", recs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: full recovery of every committed record.
	j2, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 5 || j2.LastSeq() != 5 {
		t.Fatalf("after reopen Len=%d LastSeq=%d, want 5/5", j2.Len(), j2.LastSeq())
	}
	// Appends continue the numbering.
	if err := j2.Append(fjRecord(6, "s6")); err != nil {
		t.Fatal(err)
	}
}

func TestFileJournalCrashMidAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.journal")
	j, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := j.Append(fjRecord(seq, "s")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	j4, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j4.Append(fjRecord(4, "s4")); err != nil {
		t.Fatal(err)
	}
	j4.Close()
	withFour, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(withFour) <= len(full) {
		t.Fatalf("append did not grow the file: %d <= %d", len(withFour), len(full))
	}

	// Simulate a crash at every possible torn-append length: the file ends
	// mid-frame of record 4 (or even mid-header). Recovery must keep the
	// three complete records, drop the torn tail, and leave the file ready
	// for clean appends.
	for cut := len(full) + 1; cut < len(withFour); cut++ {
		if err := os.WriteFile(path, withFour[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jr, err := core.OpenFileJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if jr.Len() != 3 || jr.LastSeq() != 3 {
			t.Fatalf("cut=%d: Len=%d LastSeq=%d, want 3/3", cut, jr.Len(), jr.LastSeq())
		}
		if err := jr.Append(fjRecord(4, "s4b")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		recs, err := jr.Records(0)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(recs) != 4 || recs[3].ID != "s4b" {
			t.Fatalf("cut=%d: %d records after recovery append", cut, len(recs))
		}
		jr.Close()
	}
}

func TestFileJournalCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.journal")
	j, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := j.Append(fjRecord(seq, "s")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the final record: its CRC no longer
	// matches, so recovery keeps only the first two records.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-6] ^= 0xff
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	jr, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if jr.Len() != 2 || jr.LastSeq() != 2 {
		t.Fatalf("Len=%d LastSeq=%d after CRC corruption, want 2/2", jr.Len(), jr.LastSeq())
	}
}

func TestFileJournalTruncateCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.journal")
	j, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for seq := uint64(1); seq <= 6; seq++ {
		if err := j.Append(fjRecord(seq, "s")); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Truncate(4); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the file: %d >= %d", after.Size(), before.Size())
	}
	if j.Len() != 2 || j.LastSeq() != 6 {
		t.Fatalf("Len=%d LastSeq=%d after Truncate(4), want 2/6", j.Len(), j.LastSeq())
	}
	// Numbering survives compaction and reopen.
	if err := j.Append(fjRecord(7, "s7")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	jr, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if jr.Len() != 3 || jr.LastSeq() != 7 {
		t.Fatalf("reopened Len=%d LastSeq=%d, want 3/7", jr.Len(), jr.LastSeq())
	}
	if err := jr.Append(fjRecord(5, "old")); err == nil {
		t.Fatal("sequence regression accepted after compaction+reopen")
	}
}

// TestFileJournalDrivesStandby proves a journal opened on a file drives the
// same snapshot+replay recovery path as one in memory: a controller
// journals ops to disk, the process "crashes" (journal reopened cold), and
// a controller rebuilt from the reopened journal reproduces the exact state
// digest.
func TestFileJournalDrivesStandby(t *testing.T) {
	path := filepath.Join(t.TempDir(), "standby.journal")
	j, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTestbed(t, core.WithJournal(j))
	hosts := tb.g.Hosts()
	if _, err := tb.ctl.Advertise("p1", hosts[0], dz.NewSet(dz.Expr("01"))); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Subscribe("s1", hosts[1], dz.NewSet(dz.Expr("0101"))); err != nil {
		t.Fatal(err)
	}
	want, err := tb.ctl.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, err := core.SnapshotDigest(want)
	if err != nil {
		t.Fatal(err)
	}
	j.Close() // crash: the live controller's in-memory state is gone

	j2, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	promoted, rep, err := core.Rebuild(tb.g, tb.dp, nil, j2, true, core.WithHostAddr(netem.HostAddr))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2", rep.Replayed)
	}
	// Modulo the takeover epoch bump, the recovered state must be
	// byte-identical (same convention as the in-memory promote tests).
	promoted.SetEpoch(0)
	got, err := promoted.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	gotDigest, err := core.SnapshotDigest(got)
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != wantDigest {
		t.Fatalf("state digest mismatch after disk-journal recovery:\n want %x\n got  %x", wantDigest, gotDigest)
	}
}

// journalScript is the fixed script of testdata/script.journal: every op
// code, a whole-space and a 31-bit member, virtual clients (ViaPort ≠ 0),
// an epoch change and a gap in the numbering.
func journalScript() []wire.Record {
	return []wire.Record{
		{Epoch: 0, Seq: 1, Op: wire.OpAdvertise, ID: "p1", Node: 3, Set: dz.NewSet("0", "10")},
		{Epoch: 0, Seq: 2, Op: wire.OpSubscribe, ID: "s1", Node: 5, Set: dz.NewSet("0101", "011")},
		{Epoch: 0, Seq: 3, Op: wire.OpSubscribe, ID: "all", Node: 6, Set: dz.NewSet("")},
		{Epoch: 0, Seq: 4, Op: wire.OpAdvertise, ID: "v/p9", Node: 12, ViaPort: 4, Set: dz.NewSet("1")},
		{Epoch: 0, Seq: 5, Op: wire.OpSubscribe, ID: "v/s9", Node: 12, ViaPort: 2, Set: dz.NewSet("11", "0110100111010011101001110100111")},
		{Epoch: 1, Seq: 6, Op: wire.OpReconfigure},
		{Epoch: 1, Seq: 7, Op: wire.OpUnsubscribe, ID: "s1"},
		{Epoch: 1, Seq: 9, Op: wire.OpUnadvertise, ID: "p1"},
	}
}

// TestJournalFileFormat pins the on-disk format: testdata/script.journal
// holds journalScript as an earlier release wrote it. Opening it must yield
// the script, and appending the script to a fresh file must reproduce it
// byte for byte.
func TestJournalFileFormat(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "script.journal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "golden.journal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs, err := j.Records(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := journalScript(); !reflect.DeepEqual(recs, want) {
		t.Fatalf("records of the committed journal:\n got  %+v\n want %+v", recs, want)
	}
	if j.LastSeq() != 9 {
		t.Errorf("LastSeq = %d, want 9", j.LastSeq())
	}

	fresh, err := core.OpenFileJournal(filepath.Join(dir, "fresh.journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range journalScript() {
		if err := fresh.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "fresh.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("appending the script wrote %d bytes that differ from the committed %d", len(got), len(golden))
	}
}

// frameAt reads the frame at the start of b as the recovery scan must judge
// it: valid when its length is in 1..1 MiB, its CRC matches and its payload
// is a record exactly as the encoder writes it. It returns the record and
// the frame's size.
func frameAt(b []byte) (wire.Record, int, bool) {
	if len(b) < 8 {
		return wire.Record{}, 0, false
	}
	n := int(binary.BigEndian.Uint32(b))
	if n == 0 || n > 1<<20 || len(b) < n+8 {
		return wire.Record{}, 0, false
	}
	payload := b[4 : 4+n]
	if binary.BigEndian.Uint32(b[4+n:]) != crc32.ChecksumIEEE(payload) {
		return wire.Record{}, 0, false
	}
	rec, err := wire.DecodeRecord(payload)
	if err != nil {
		return wire.Record{}, 0, false
	}
	if enc, err := wire.AppendRecord(nil, rec); err != nil || !bytes.Equal(enc, payload) {
		return wire.Record{}, 0, false
	}
	return rec, n + 8, true
}

// FuzzJournalOpen: for any file bytes, opening never panics and keeps
// exactly the longest prefix of valid frames — refusing the file instead
// when a sequence number in that prefix does not increase — truncates the
// file to that prefix, and the kept records re-frame to exactly its bytes.
func FuzzJournalOpen(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "script.journal"))
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut <= len(golden); cut++ {
		f.Add(golden[:cut])
	}
	_, first, _ := frameAt(golden)
	f.Add(append(slices.Clone(golden), golden[:first]...)) // sequence 1 after 9
	flipped := slices.Clone(golden)
	flipped[first+20] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The oracle: the longest prefix of valid frames, and whether its
		// sequence numbers increase.
		var want []wire.Record
		prefix, regressed := 0, false
		for !regressed {
			rec, size, ok := frameAt(data[prefix:])
			if !ok {
				break
			}
			regressed = len(want) > 0 && rec.Seq <= want[len(want)-1].Seq
			want = append(want, rec)
			prefix += size
		}

		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := core.OpenFileJournal(path)
		if regressed {
			if err == nil || !strings.Contains(err.Error(), "not after") {
				t.Fatalf("a sequence regression opened: err = %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer j.Close()
		recs, err := j.Records(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			recs = nil
		}
		if !reflect.DeepEqual(recs, want) {
			t.Fatalf("kept %d records, want the %d of the valid prefix", len(recs), len(want))
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, data[:prefix]) {
			t.Fatalf("file is %d bytes after open, want the %d-byte valid prefix", len(file), prefix)
		}
		var reframed []byte
		for _, rec := range recs {
			enc, err := wire.AppendRecord(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			reframed = binary.BigEndian.AppendUint32(reframed, uint32(len(enc)))
			reframed = append(reframed, enc...)
			reframed = binary.BigEndian.AppendUint32(reframed, crc32.ChecksumIEEE(enc))
		}
		if !bytes.Equal(reframed, file) {
			t.Fatal("the kept records do not re-frame to the file's bytes")
		}
	})
}
