package core_test

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
	"pleroma/internal/space"
)

// churnTestbed drives a small mixed workload so the controller holds
// several trees, stored subscriptions, and retired ids.
func churnTestbed(t *testing.T, opts ...core.Option) *testbed {
	t.Helper()
	tb := newTestbed(t, opts...)
	hosts := tb.g.Hosts()

	advA := tb.decompose(t, space.NewFilter().Range("attr0", 0, 511))
	advB := tb.decompose(t, space.NewFilter().Range("attr1", 256, 767))
	if _, err := tb.ctl.Advertise("pA", hosts[0], advA); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Advertise("pB", hosts[3], advB); err != nil {
		t.Fatal(err)
	}
	subs := []struct {
		id   string
		host int
		lo   uint32
		hi   uint32
	}{
		{"s1", 7, 0, 255},
		{"s2", 6, 128, 400},
		{"s3", 5, 0, 1023},
		{"s4", 4, 900, 1023}, // disjoint from pA: stored
	}
	for _, s := range subs {
		set := tb.decompose(t, space.NewFilter().Range("attr0", s.lo, s.hi))
		if _, err := tb.ctl.Subscribe(s.id, hosts[s.host], set); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.ctl.Unsubscribe("s2"); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	tb := churnTestbed(t)

	snap, err := tb.ctl.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	d1, err := core.SnapshotDigest(snap)
	if err != nil {
		t.Fatal(err)
	}

	restored, err := core.RestoreController(tb.g, tb.dp, snap,
		core.WithHostAddr(netem.HostAddr))
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := restored.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, snap2) {
		t.Fatal("restored controller's snapshot is not byte-identical")
	}
	d2, err := core.SnapshotDigest(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("snapshot digests differ after restore round trip")
	}

	// The restored desired state must agree with the live switch tables
	// the original controller programmed.
	if err := restored.VerifyTables(); err != nil {
		t.Fatalf("restored controller out of sync with switches: %v", err)
	}
}

func TestSnapshotEncodeDeterministic(t *testing.T) {
	tb := churnTestbed(t)
	snap1, err := tb.ctl.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := tb.ctl.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Fatal("two snapshots of unchanged state differ")
	}

	// An independent controller driven through the same op sequence must
	// produce the same bytes: the codec iterates every map in sorted
	// order, never insertion order.
	other := churnTestbed(t)
	snap3, err := other.ctl.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1, snap3) {
		t.Fatal("same op sequence on a fresh controller yields different snapshot bytes")
	}
}

func TestSnapshotDigestValidation(t *testing.T) {
	tb := churnTestbed(t)
	snap, err := tb.ctl.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := core.SnapshotDigest(snap[:3]); err == nil {
		t.Error("short snapshot must fail digest extraction")
	}
	bad := append([]byte(nil), snap...)
	bad[0] ^= 0xFF
	if _, err := core.SnapshotDigest(bad); err == nil {
		t.Error("bad magic must fail")
	}

	// Flip one state byte: the trailer digest no longer matches, and a
	// restore must refuse the stream instead of rebuilding from it.
	bad = append([]byte(nil), snap...)
	bad[len(bad)-40] ^= 0x01
	if _, err := core.RestoreController(tb.g, tb.dp, bad, core.WithHostAddr(netem.HostAddr)); err == nil {
		t.Error("corrupted snapshot must fail restore")
	}
}

// TestSnapshotRestoreOntoFreshSwitches proves a snapshot carries enough
// state to rebuild forwarding from nothing: the restored controller
// resyncs blank switches and delivery matches the original network.
func TestSnapshotRestoreOntoFreshSwitches(t *testing.T) {
	tb := churnTestbed(t)
	snap, err := tb.ctl.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// A second, untouched network over the same topology.
	eng2 := sim.NewEngine()
	dp2 := netem.New(tb.g, eng2)
	recv2 := make(map[int]int)
	for _, h := range tb.g.Hosts() {
		h := h
		if err := dp2.ConfigureHost(h, netem.HostConfig{}, func(netem.Delivery) {
			recv2[int(h)]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := core.RestoreController(tb.g, dp2, snap,
		core.WithHostAddr(netem.HostAddr))
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot's installed flows describe the dead network's
	// switches; anti-entropy resync writes them into the fresh ones.
	if _, err := restored.ResyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := restored.VerifyTables(); err != nil {
		t.Fatalf("resynced switches diverge from desired state: %v", err)
	}

	hosts := tb.g.Hosts()
	for _, vals := range [][]uint32{{100, 500}, {300, 300}, {950, 10}} {
		ev, err := tb.sch.NewEvent(vals...)
		if err != nil {
			t.Fatal(err)
		}
		expr, err := tb.sch.Encode(ev, tb.sch.Geometry().MaxLen())
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.dp.Publish(hosts[0], expr, ev, 64); err != nil {
			t.Fatal(err)
		}
		if err := dp2.Publish(hosts[0], expr, ev, 64); err != nil {
			t.Fatal(err)
		}
	}
	tb.eng.Run()
	eng2.Run()

	for _, h := range hosts {
		if got, want := recv2[int(h)], len(tb.recv[h]); got != want {
			t.Errorf("host %d: restored network delivered %d, original %d", h, got, want)
		}
	}
}

// TestSnapshotRestoreRefusesOverlongMember: a set member longer than
// dz.MaxKeyBits cannot reach a restored controller's tree index — the index
// holds packed keys only and treats such a member as a bug — because the
// snapshot reader refuses the stream. Admission refuses the same member on a
// live controller (TestOverlongExpressionRejectedUpFront).
func TestSnapshotRestoreRefusesOverlongMember(t *testing.T) {
	tb := newTestbed(t)
	hosts := tb.g.Hosts()
	longest := dz.Expr(strings.Repeat("1", dz.MaxKeyBits))
	if _, err := tb.ctl.Advertise("p", hosts[0], dz.NewSet(longest)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Subscribe("s", hosts[1], dz.NewSet(longest)); err != nil {
		t.Fatal(err)
	}
	snap, err := tb.ctl.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RestoreController(tb.g, tb.dp, snap, core.WithHostAddr(netem.HostAddr)); err != nil {
		t.Fatalf("the longest member that fits must restore: %v", err)
	}
	// Grow every copy of the member by one bit and re-seal the stream.
	packed := append([]byte{dz.MaxKeyBits}, bytes.Repeat([]byte{0xff}, dz.MaxKeyBits/8)...)
	grown := append(append([]byte{dz.MaxKeyBits + 1}, packed[1:]...), 0x80)
	body := snap[:len(snap)-sha256.Size]
	if !bytes.Contains(body, packed) {
		t.Fatal("snapshot does not hold the member in the expected encoding")
	}
	body = bytes.ReplaceAll(body, packed, grown)
	sum := sha256.Sum256(body)
	forged := append(body, sum[:]...)
	if _, err := core.SnapshotDigest(forged); err != nil {
		t.Fatalf("forged snapshot must carry a valid digest: %v", err)
	}
	if _, err := core.RestoreController(tb.g, tb.dp, forged, core.WithHostAddr(netem.HostAddr)); err == nil {
		t.Fatal("a snapshot with a 113-bit set member restored")
	}
}
