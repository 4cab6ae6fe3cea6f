package interdomain

import (
	"bytes"
	"reflect"
	"testing"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/topo"
)

// driveHA runs a cross-partition scenario with churn on a 3-partition
// chain: two advertisements, three subscriptions, one retirement each.
func driveHA(t *testing.T, fx *fixture) {
	t.Helper()
	g := fx.g
	p0 := g.HostsInPartition(0)
	p1 := g.HostsInPartition(1)
	p2 := g.HostsInPartition(2)
	steps := []struct {
		op   string
		id   string
		host topo.NodeID
		set  dz.Set
	}{
		{"adv", "pubA", p0[0], dz.NewSet("0")},
		{"adv", "pubB", p1[1], dz.NewSet("10")},
		{"sub", "s1", p2[0], dz.NewSet("00")},
		{"sub", "s2", p1[0], dz.NewSet("0")},
		{"sub", "s3", p0[1], dz.NewSet("1")},
		{"unsub", "s2", 0, nil},
		{"unadv", "pubB", 0, nil},
	}
	for _, s := range steps {
		var err error
		switch s.op {
		case "adv":
			err = fx.fab.Advertise(s.id, s.host, s.set)
		case "sub":
			err = fx.fab.Subscribe(s.id, s.host, s.set)
		case "unsub":
			err = fx.fab.Unsubscribe(s.id)
		case "unadv":
			err = fx.fab.Unadvertise(s.id)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", s.op, s.id, err)
		}
	}
}

func TestFabricFailoverPreservesForwarding(t *testing.T) {
	g := chainTopo(t, 3)
	fx := newFixture(t, g, WithHA(nil))
	driveHA(t, fx)
	p0 := g.HostsInPartition(0)
	p2 := g.HostsInPartition(2)

	// Checkpoint partition 1, then keep mutating so the failover must
	// replay a journal suffix on top of the snapshot.
	if _, err := fx.fab.SnapshotPartition(1); err != nil {
		t.Fatal(err)
	}
	if err := fx.fab.Subscribe("late", g.HostsInPartition(1)[1], dz.NewSet("01")); err != nil {
		t.Fatal(err)
	}

	rep, err := fx.fab.Failover(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partition != 1 {
		t.Errorf("report partition=%d, want 1", rep.Partition)
	}
	if !rep.FromSnapshot {
		t.Error("failover must restore from the observed snapshot")
	}
	if rep.Epoch != 1 {
		t.Errorf("first failover epoch=%d, want 1", rep.Epoch)
	}
	ctl, err := fx.fab.Controller(1)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Epoch() != 1 {
		t.Errorf("promoted controller epoch=%d, want 1", ctl.Epoch())
	}
	if err := fx.fab.VerifyTables(); err != nil {
		t.Fatalf("tables diverged after failover: %v", err)
	}

	// The transit partition survived its controller: events still cross it.
	fx.publish(t, p0[0], "0000000000")
	fx.eng.Run()
	if fx.recv[p2[0]] != 1 {
		t.Errorf("s1 received %d after failover, want 1", fx.recv[p2[0]])
	}

	// The promoted controller journals under its new epoch, so a second
	// failover of the same partition chains cleanly.
	if err := fx.fab.Subscribe("post", g.HostsInPartition(1)[0], dz.NewSet("001")); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.fab.SnapshotPartition(1); err != nil {
		t.Fatal(err)
	}
	rep2, err := fx.fab.Failover(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Epoch != 2 {
		t.Errorf("second failover epoch=%d, want 2", rep2.Epoch)
	}
}

// TestFailoverAndRecoverAreOneTakeover: promoting from the retained
// snapshot and recovering from the same snapshot handed in from outside
// must land on the same controller state and report the same takeover.
func TestFailoverAndRecoverAreOneTakeover(t *testing.T) {
	type outcome struct {
		rep    FailoverReport
		digest []byte
	}
	run := func(takeover func(f *Fabric, snap []byte) (FailoverReport, error)) outcome {
		g := chainTopo(t, 3)
		fx := newFixture(t, g, WithHA(nil))
		driveHA(t, fx)
		snap, err := fx.fab.SnapshotPartition(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := fx.fab.Subscribe("late", g.HostsInPartition(1)[1], dz.NewSet("01")); err != nil {
			t.Fatal(err)
		}
		rep, err := takeover(fx.fab, snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := fx.fab.VerifyTables(); err != nil {
			t.Fatal(err)
		}
		d, err := fx.fab.DigestPartition(1)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{rep, d}
	}
	failed := run(func(f *Fabric, _ []byte) (FailoverReport, error) { return f.Failover(1) })
	recovered := run(func(f *Fabric, snap []byte) (FailoverReport, error) { return f.RecoverPartition(1, snap) })
	if !reflect.DeepEqual(failed.rep, recovered.rep) {
		t.Errorf("reports differ:\nfailover %+v\nrecover  %+v", failed.rep, recovered.rep)
	}
	if !failed.rep.FromSnapshot || failed.rep.Replayed == 0 {
		t.Errorf("takeover must restore the snapshot and replay the suffix: %+v", failed.rep)
	}
	if !bytes.Equal(failed.digest, recovered.digest) {
		t.Error("state digests differ between Failover and RecoverPartition")
	}
}

func TestFabricSnapshotRestorePartition(t *testing.T) {
	g := chainTopo(t, 3)
	fx := newFixture(t, g, WithHA(nil))
	driveHA(t, fx)

	snap, err := fx.fab.SnapshotPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.fab.RestorePartition(0, snap); err != nil {
		t.Fatal(err)
	}
	ctl, err := fx.fab.Controller(0)
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := ctl.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	d1, err := core.SnapshotDigest(snap)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := core.SnapshotDigest(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("restored partition's snapshot digest differs")
	}
	if err := fx.fab.VerifyTables(); err != nil {
		t.Fatalf("tables diverged after restore: %v", err)
	}
}

func TestFailoverRequiresHA(t *testing.T) {
	g := chainTopo(t, 2)
	fx := newFixture(t, g)
	if _, err := fx.fab.Failover(0); err == nil {
		t.Error("Failover without WithHA must fail")
	}
	if _, err := fx.fab.SnapshotPartition(0); err == nil {
		t.Error("SnapshotPartition without WithHA must fail")
	}
	fxHA := newFixture(t, chainTopo(t, 2), WithHA(nil))
	if _, err := fxHA.fab.Failover(99); err == nil {
		t.Error("Failover of an unknown partition must fail")
	}
}

// TestFabricOpOrderDeterministic pins the determinism the journal's
// replayability rests on: two fabrics driven through the same op
// sequence — including the map-heavy unadvertise and topology-change
// paths — must leave every partition controller in byte-identical
// state. Tree ids are assigned in controller-op order, so any
// map-iteration nondeterminism in the fabric shows up as a digest
// mismatch.
func TestFabricOpOrderDeterministic(t *testing.T) {
	run := func() [][32]byte {
		g := chainTopo(t, 3)
		fx := newFixture(t, g, WithHA(nil))
		driveHA(t, fx)
		if err := fx.fab.HandleTopologyChange(); err != nil {
			t.Fatal(err)
		}
		if err := fx.fab.Unadvertise("pubA"); err != nil {
			t.Fatal(err)
		}
		if err := fx.fab.Advertise("pubC", g.HostsInPartition(2)[0], dz.NewSet("1")); err != nil {
			t.Fatal(err)
		}
		var digests [][32]byte
		for _, p := range fx.fab.Partitions() {
			ctl, err := fx.fab.Controller(p)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := ctl.EncodeSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			d, err := core.SnapshotDigest(snap)
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, d)
		}
		return digests
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("partition %d: state digest differs between identical runs", i)
		}
	}
}
