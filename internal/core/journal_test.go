package core_test

import (
	"testing"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/space"
	"pleroma/internal/wire"
)

func TestMemJournalSemantics(t *testing.T) {
	j := core.NewMemJournal()
	set := dz.NewSet(dz.Expr("01"))
	for seq := uint64(1); seq <= 5; seq++ {
		if err := j.Append(wire.Record{Op: wire.OpAdvertise, ID: "p", Seq: seq, Node: 1, Set: set}); err != nil {
			t.Fatal(err)
		}
	}
	if j.Len() != 5 || j.LastSeq() != 5 {
		t.Fatalf("Len=%d LastSeq=%d, want 5/5", j.Len(), j.LastSeq())
	}

	// Non-increasing sequence numbers are a split-brain symptom and must
	// be rejected.
	if err := j.Append(wire.Record{Op: wire.OpAdvertise, ID: "p", Seq: 5, Node: 1, Set: set}); err == nil {
		t.Fatal("duplicate seq must be rejected")
	}
	if err := j.Append(wire.Record{Op: wire.OpAdvertise, ID: "p", Seq: 3, Node: 1, Set: set}); err == nil {
		t.Fatal("regressing seq must be rejected")
	}

	recs, err := j.Records(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Seq != 3 || recs[2].Seq != 5 {
		t.Fatalf("Records(2): got %d recs, first/last %d/%d", len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
	}

	// Compaction drops the prefix but must not roll the sequence back:
	// post-truncate appends continue from the pre-truncate high mark.
	j.Truncate(4)
	if j.Len() != 1 || j.LastSeq() != 5 {
		t.Fatalf("after Truncate(4): Len=%d LastSeq=%d, want 1/5", j.Len(), j.LastSeq())
	}
	if err := j.Append(wire.Record{Op: wire.OpAdvertise, ID: "p", Seq: 4, Node: 1, Set: set}); err == nil {
		t.Fatal("seq below compacted high mark must be rejected")
	}
	if err := j.Append(wire.Record{Op: wire.OpAdvertise, ID: "p", Seq: 6, Node: 1, Set: set}); err != nil {
		t.Fatal(err)
	}
	j.Truncate(10)
	if j.Len() != 0 || j.LastSeq() != 6 {
		t.Fatalf("after full truncate: Len=%d LastSeq=%d, want 0/6", j.Len(), j.LastSeq())
	}
}

func TestControllerJournalsEveryOp(t *testing.T) {
	j := core.NewMemJournal()
	tb := newTestbed(t, core.WithJournal(j))
	hosts := tb.g.Hosts()

	adv := tb.decompose(t, space.NewFilter().Range("attr0", 0, 511))
	sub := tb.decompose(t, space.NewFilter().Range("attr0", 0, 255))
	if _, err := tb.ctl.Advertise("p1", hosts[0], adv); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Subscribe("s1", hosts[7], sub); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.RebuildTrees(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Unsubscribe("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Unadvertise("p1"); err != nil {
		t.Fatal(err)
	}

	recs, err := j.Records(0)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []wire.Op{wire.OpAdvertise, wire.OpSubscribe, wire.OpReconfigure,
		wire.OpUnsubscribe, wire.OpUnadvertise}
	if len(recs) != len(wantOps) {
		t.Fatalf("journal holds %d records, want %d", len(recs), len(wantOps))
	}
	for i, rec := range recs {
		if rec.Op != wantOps[i] {
			t.Errorf("record %d: op %q, want %q", i, rec.Op, wantOps[i])
		}
		if rec.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, rec.Seq, i+1)
		}
		if rec.Epoch != 0 {
			t.Errorf("record %d: epoch %d, want 0", i, rec.Epoch)
		}
	}
	if tb.ctl.JournalSeq() != uint64(len(wantOps)) {
		t.Errorf("controller JournalSeq=%d, want %d", tb.ctl.JournalSeq(), len(wantOps))
	}

	// A failed op must not be journaled: re-advertising a live id errors.
	if _, err := tb.ctl.Advertise("p1", hosts[0], adv); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Advertise("p1", hosts[1], adv); err == nil {
		t.Fatal("duplicate advertise must fail")
	}
	if got := j.Len(); got != len(wantOps)+1 {
		t.Errorf("journal holds %d records after failed op, want %d", got, len(wantOps)+1)
	}
}

func TestStandbyPromoteFromJournalOnly(t *testing.T) {
	j := core.NewMemJournal()
	tb := churnTestbed(t, core.WithJournal(j))

	snapBefore, err := tb.ctl.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The active controller "crashes": a standby replays the journal from
	// genesis against the same network and takes over.
	promoted, rep, err := core.Rebuild(tb.g, tb.dp, nil, j, true, core.WithHostAddr(netem.HostAddr))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromSnapshot {
		t.Error("no snapshot was observed, FromSnapshot must be false")
	}
	if rep.Replayed != j.Len() {
		t.Errorf("Replayed=%d, want %d", rep.Replayed, j.Len())
	}
	if rep.Epoch != 1 || promoted.Epoch() != 1 {
		t.Errorf("promoted epoch=%d/%d, want 1", rep.Epoch, promoted.Epoch())
	}
	if err := promoted.VerifyTables(); err != nil {
		t.Fatalf("promoted controller out of sync: %v", err)
	}

	// Modulo the epoch bump, the replayed controller must reconstruct the
	// dead one's exact state: same snapshot bytes, hence same digest.
	promoted.SetEpoch(0)
	snapAfter, err := promoted.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	d1, err := core.SnapshotDigest(snapBefore)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := core.SnapshotDigest(snapAfter)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("journal replay did not reconstruct the pre-crash state")
	}

	// The promoted controller inherited the journal: new ops append under
	// the bumped epoch, continuing the sequence.
	promoted.SetEpoch(1)
	hosts := tb.g.Hosts()
	set := tb.decompose(t, space.NewFilter().Range("attr1", 0, 127))
	if _, err := promoted.Subscribe("post-failover", hosts[2], set); err != nil {
		t.Fatal(err)
	}
	recs, err := j.Records(0)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if last.Op != wire.OpSubscribe || last.ID != "post-failover" || last.Epoch != 1 {
		t.Errorf("post-takeover record = %+v, want epoch-1 subscribe", last)
	}
}

func TestStandbyPromoteFromSnapshotPlusSuffix(t *testing.T) {
	j := core.NewMemJournal()
	tb := churnTestbed(t, core.WithJournal(j))
	hosts := tb.g.Hosts()

	// Checkpoint: snapshot + compact, then keep mutating.
	snap, err := tb.ctl.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	j.Truncate(tb.ctl.JournalSeq())
	set := tb.decompose(t, space.NewFilter().Range("attr0", 300, 600))
	if _, err := tb.ctl.Subscribe("late", hosts[1], set); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Unsubscribe("s3"); err != nil {
		t.Fatal(err)
	}
	suffix := j.Len()

	promoted, rep, err := core.Rebuild(tb.g, tb.dp, snap, j, true, core.WithHostAddr(netem.HostAddr))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FromSnapshot {
		t.Error("FromSnapshot must be true")
	}
	if rep.Replayed != suffix {
		t.Errorf("Replayed=%d, want the %d-record suffix", rep.Replayed, suffix)
	}
	if err := promoted.VerifyTables(); err != nil {
		t.Fatalf("promoted controller out of sync: %v", err)
	}

	// Equivalence against the dead controller's final state.
	wantSnap, err := tb.ctl.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	promoted.SetEpoch(0)
	gotSnap, err := promoted.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	dWant, _ := core.SnapshotDigest(wantSnap)
	dGot, err := core.SnapshotDigest(gotSnap)
	if err != nil {
		t.Fatal(err)
	}
	if dWant != dGot {
		t.Fatal("snapshot+suffix replay did not reconstruct the pre-crash state")
	}

	// A standby that never observed a snapshot cannot replay a compacted
	// journal — the takeover must be refused, not silently wrong.
	if _, _, err := core.Rebuild(tb.g, tb.dp, nil, j, true, core.WithHostAddr(netem.HostAddr)); err == nil {
		t.Fatal("promote across a compaction gap without a snapshot must fail")
	}

	// A second failover chains: checkpoint the new active, fail it, and the
	// next incarnation's epoch moves strictly past epoch 1.
	promoted.SetEpoch(1)
	snap2, err := promoted.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	j.Truncate(promoted.JournalSeq())
	promoted2, rep2, err := core.Rebuild(tb.g, tb.dp, snap2, j, true, core.WithHostAddr(netem.HostAddr))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Epoch != 2 || promoted2.Epoch() != 2 {
		t.Errorf("second failover epoch=%d/%d, want 2", rep2.Epoch, promoted2.Epoch())
	}
}
