package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
)

// testbed bundles a topology, data plane, and controller for tests.
type testbed struct {
	g    *topo.Graph
	eng  *sim.Engine
	dp   *netem.DataPlane
	ctl  *core.Controller
	sch  *space.Schema
	recv map[topo.NodeID][]netem.Delivery
}

func newTestbed(t *testing.T, opts ...core.Option) *testbed {
	t.Helper()
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	return newTestbedOn(t, g, opts...)
}

func newTestbedOn(t *testing.T, g *topo.Graph, opts ...core.Option) *testbed {
	t.Helper()
	eng := sim.NewEngine()
	dp := netem.New(g, eng)
	opts = append([]core.Option{core.WithHostAddr(netem.HostAddr)}, opts...)
	ctl, err := core.NewController(g, dp, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := space.UniformSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	tb := &testbed{g: g, eng: eng, dp: dp, ctl: ctl, sch: sch,
		recv: make(map[topo.NodeID][]netem.Delivery)}
	for _, h := range g.Hosts() {
		h := h
		if err := dp.ConfigureHost(h, netem.HostConfig{}, func(d netem.Delivery) {
			tb.recv[h] = append(tb.recv[h], d)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// decompose converts a filter to its full-precision DZ set.
func (tb *testbed) decompose(t *testing.T, f space.Filter) dz.Set {
	t.Helper()
	r, err := tb.sch.Rect(f)
	if err != nil {
		t.Fatal(err)
	}
	set, err := tb.sch.Geometry().Decompose(r, tb.sch.Geometry().MaxLen())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// publish encodes and sends an event at full dz precision.
func (tb *testbed) publish(t *testing.T, host topo.NodeID, vals ...uint32) space.Event {
	t.Helper()
	ev, err := tb.sch.NewEvent(vals...)
	if err != nil {
		t.Fatal(err)
	}
	expr, err := tb.sch.Encode(ev, tb.sch.Geometry().MaxLen())
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.dp.Publish(host, expr, ev, 64); err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestAdvertiseThenSubscribeDelivers(t *testing.T) {
	tb := newTestbed(t)
	hosts := tb.g.Hosts()
	pub, sub := hosts[0], hosts[7] // opposite pods

	adv := tb.decompose(t, space.NewFilter().Range("attr0", 0, 511))
	if rep, err := tb.ctl.Advertise("p1", pub, adv); err != nil {
		t.Fatal(err)
	} else if rep.TreesCreated != 1 {
		t.Errorf("TreesCreated=%d, want 1", rep.TreesCreated)
	}

	subSet := tb.decompose(t, space.NewFilter().Range("attr0", 0, 255))
	rep, err := tb.ctl.Subscribe("s1", sub, subSet)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stored {
		t.Error("overlapping subscription must not be stored")
	}
	if rep.FlowAdds == 0 {
		t.Error("subscription must install flows")
	}

	// Matching event reaches the subscriber.
	tb.publish(t, pub, 100, 500)
	// Non-matching event (attr0 > 255) must not.
	tb.publish(t, pub, 400, 500)
	tb.eng.Run()

	if got := len(tb.recv[sub]); got != 1 {
		t.Fatalf("subscriber received %d events, want 1", got)
	}
	if got := tb.recv[sub][0].Packet.Dst; got != netem.HostAddr(sub) {
		t.Errorf("terminal rewrite: dst=%v, want %v", got, netem.HostAddr(sub))
	}
	for _, h := range tb.g.Hosts() {
		if h != sub && len(tb.recv[h]) != 0 {
			t.Errorf("host %d spuriously received %d events", h, len(tb.recv[h]))
		}
	}
}

func TestStoredSubscriptionActivatesOnAdvertise(t *testing.T) {
	tb := newTestbed(t)
	hosts := tb.g.Hosts()
	pub, sub := hosts[1], hosts[6]

	subSet := tb.decompose(t, space.NewFilter().Range("attr1", 512, 1023))
	rep, err := tb.ctl.Subscribe("s1", sub, subSet)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stored {
		t.Error("subscription without trees must be stored")
	}
	if got := tb.ctl.StoredSubscriptions(); len(got) != 1 || got[0] != "s1" {
		t.Errorf("StoredSubscriptions=%v", got)
	}

	adv := tb.decompose(t, space.NewFilter().Range("attr1", 512, 1023))
	if _, err := tb.ctl.Advertise("p1", pub, adv); err != nil {
		t.Fatal(err)
	}
	if got := tb.ctl.StoredSubscriptions(); len(got) != 0 {
		t.Errorf("stored subscription must activate, still stored: %v", got)
	}

	tb.publish(t, pub, 0, 700)
	tb.eng.Run()
	if got := len(tb.recv[sub]); got != 1 {
		t.Errorf("subscriber received %d events, want 1", got)
	}
}

func TestPublisherJoinsExistingTree(t *testing.T) {
	tb := newTestbed(t)
	hosts := tb.g.Hosts()

	// Paper Section 3.2 case (1): DZ(p2)={11} joins the tree with DZ={1}.
	if _, err := tb.ctl.Advertise("p1", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	rep, err := tb.ctl.Advertise("p2", hosts[2], dz.NewSet("11"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TreesCreated != 0 || rep.TreesJoined != 1 {
		t.Errorf("rep=%+v, want join without creation", rep)
	}
	if got := len(tb.ctl.Trees()); got != 1 {
		t.Errorf("trees=%d, want 1", got)
	}
}

func TestAdvertiseCoveringExistingTreeCreatesRemainder(t *testing.T) {
	tb := newTestbed(t)
	hosts := tb.g.Hosts()

	// Paper Section 3.2 case (2): tree DZ={00} exists; DZ(p2)={0} joins it
	// and a new tree is created for the uncovered {01}.
	if _, err := tb.ctl.Advertise("p1", hosts[0], dz.NewSet("00")); err != nil {
		t.Fatal(err)
	}
	rep, err := tb.ctl.Advertise("p2", hosts[3], dz.NewSet("0"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TreesJoined != 1 || rep.TreesCreated != 1 {
		t.Errorf("rep=%+v, want 1 join + 1 creation", rep)
	}
	trees := tb.ctl.Trees()
	if len(trees) != 2 {
		t.Fatalf("trees=%d, want 2", len(trees))
	}
	var union dz.Set
	for _, tr := range trees {
		union = union.Union(tr.DZ)
	}
	if !union.Equal(dz.NewSet("0")) {
		t.Errorf("tree DZ union=%v, want {0}", union)
	}
}

func TestTreeDZDisjointInvariant(t *testing.T) {
	tb := newTestbed(t)
	hosts := tb.g.Hosts()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		set := randomDzSet(r, 3, 6)
		if set.IsEmpty() {
			continue
		}
		if _, err := tb.ctl.Advertise(fmt.Sprintf("p%d", i), hosts[r.Intn(len(hosts))], set); err != nil {
			t.Fatal(err)
		}
		assertTreesDisjoint(t, tb.ctl)
	}
}

func assertTreesDisjoint(t *testing.T, ctl *core.Controller) {
	t.Helper()
	trees := ctl.Trees()
	for i := range trees {
		for j := i + 1; j < len(trees); j++ {
			if !trees[i].DZ.Intersect(trees[j].DZ).IsEmpty() {
				t.Fatalf("trees %d and %d overlap: %v vs %v",
					trees[i].ID, trees[j].ID, trees[i].DZ, trees[j].DZ)
			}
		}
	}
}

func randomDzSet(r *rand.Rand, maxMembers, maxLen int) dz.Set {
	n := 1 + r.Intn(maxMembers)
	exprs := make([]dz.Expr, n)
	for i := range exprs {
		l := r.Intn(maxLen + 1)
		buf := make([]byte, l)
		for j := range buf {
			buf[j] = byte('0' + r.Intn(2))
		}
		exprs[i] = dz.Expr(buf)
	}
	return dz.NewSet(exprs...)
}

func TestUnsubscribeDowngradesToPriorState(t *testing.T) {
	// The delete-or-downgrade behaviour of Section 3.3.3: after s3
	// unsubscribes, every switch's flow table must be equivalent to the
	// state before s3 subscribed.
	tb := newTestbed(t)
	hosts := tb.g.Hosts()

	if _, err := tb.ctl.Advertise("p1", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Subscribe("s1", hosts[4], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Subscribe("s2", hosts[5], dz.NewSet("100")); err != nil {
		t.Fatal(err)
	}
	before := snapshotTables(t, tb)

	if _, err := tb.ctl.Subscribe("s3", hosts[6], dz.NewSet("10")); err != nil {
		t.Fatal(err)
	}
	middle := snapshotTables(t, tb)
	if tablesEqual(before, middle) {
		t.Fatal("s3's subscription must change some table")
	}

	if _, err := tb.ctl.Unsubscribe("s3"); err != nil {
		t.Fatal(err)
	}
	after := snapshotTables(t, tb)
	if !tablesEqual(before, after) {
		t.Errorf("unsubscription must restore tables\nbefore=%v\nafter=%v", before, after)
	}
}

// snapshotTables captures (switch, expr, priority, ports) tuples.
func snapshotTables(t *testing.T, tb *testbed) map[string]bool {
	t.Helper()
	snap := make(map[string]bool)
	for _, sw := range tb.g.Switches() {
		flows, err := tb.dp.Flows(sw)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flows {
			snap[fmt.Sprintf("%d|%s|%d|%v", sw, f.Expr(), f.Priority, f.Actions)] = true
		}
	}
	return snap
}

func tablesEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestUnsubscribeUnknown(t *testing.T) {
	tb := newTestbed(t)
	if _, err := tb.ctl.Unsubscribe("ghost"); !errors.Is(err, core.ErrUnknownClient) {
		t.Errorf("err=%v, want ErrUnknownClient", err)
	}
	if _, err := tb.ctl.Unadvertise("ghost"); !errors.Is(err, core.ErrUnknownClient) {
		t.Errorf("err=%v, want ErrUnknownClient", err)
	}
}

func TestDuplicateIDs(t *testing.T) {
	tb := newTestbed(t)
	hosts := tb.g.Hosts()
	if _, err := tb.ctl.Advertise("x", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Advertise("x", hosts[1], dz.NewSet("0")); !errors.Is(err, core.ErrDuplicateClient) {
		t.Errorf("err=%v, want ErrDuplicateClient", err)
	}
	if _, err := tb.ctl.Subscribe("y", hosts[2], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Subscribe("y", hosts[3], dz.NewSet("0")); !errors.Is(err, core.ErrDuplicateClient) {
		t.Errorf("err=%v, want ErrDuplicateClient", err)
	}
}

func TestClientValidation(t *testing.T) {
	tb := newTestbed(t)
	sw := tb.g.Switches()[0]
	if _, err := tb.ctl.Advertise("p", sw, dz.NewSet("1")); err == nil {
		t.Error("advertising from a switch must fail")
	}
	if _, err := tb.ctl.Subscribe("s", topo.NodeID(999), dz.NewSet("1")); err == nil {
		t.Error("unknown node must fail")
	}
	if _, err := tb.ctl.Advertise("p", tb.g.Hosts()[0], nil); err == nil {
		t.Error("empty DZ set must fail")
	}
	if _, err := tb.ctl.AdvertiseVirtual("v", tb.g.Hosts()[0], 1, dz.NewSet("1")); err == nil {
		t.Error("virtual endpoint on host must fail")
	}
	if _, err := tb.ctl.AdvertiseVirtual("v", sw, 0, dz.NewSet("1")); err == nil {
		t.Error("virtual endpoint without port must fail")
	}
	if _, err := tb.ctl.AdvertiseVirtual("v", sw, 99, dz.NewSet("1")); err == nil {
		t.Error("virtual endpoint with bad port must fail")
	}
}

// TestOverlongExpressionRejectedUpFront: a subspace longer than a flow match
// can hold (the controller truncates nothing) must be refused before the
// request registers anything — not in refresh, with the client and its
// contributions already in place and the tables short of a flow.
func TestOverlongExpressionRejectedUpFront(t *testing.T) {
	tb := newTestbed(t)
	hosts := tb.g.Hosts()
	fits := dz.Expr(strings.Repeat("0", dz.MaxKeyBits))
	if _, err := tb.ctl.Advertise("p", hosts[0], dz.NewSet("0")); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		_, err := tb.ctl.Subscribe("s", hosts[1], dz.NewSet("1", fits+"1"))
		if err == nil || errors.Is(err, core.ErrDuplicateClient) {
			t.Fatalf("attempt %d: overlong subscription: %v, want a length error every time", attempt, err)
		}
		_, err = tb.ctl.Advertise("q", hosts[2], dz.NewSet(fits+"0"))
		if err == nil || errors.Is(err, core.ErrDuplicateClient) {
			t.Fatalf("attempt %d: overlong advertisement: %v, want a length error every time", attempt, err)
		}
		if err := tb.ctl.VerifyTables(); err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
	}
	if _, ok := tb.ctl.SubscriptionSet("s"); ok {
		t.Error("refused subscription stayed registered")
	}
	if _, ok := tb.ctl.AdvertisementSet("q"); ok {
		t.Error("refused advertisement stayed registered")
	}
	// The longest expression that fits is programmed like any other.
	if _, err := tb.ctl.Subscribe("s", hosts[1], dz.NewSet(fits)); err != nil {
		t.Fatal(err)
	}
	if err := tb.ctl.VerifyTables(); err != nil {
		t.Fatal(err)
	}
	if tb.ctl.InstalledFlowCount() == 0 {
		t.Error("no flow for the longest expression that fits")
	}
}

// TestTreeForKey: the per-publish tree lookup takes the event's packed dz and
// finds the one tree owning it — through a member that covers the key or a
// member the key covers — and nothing outside every tree's set.
func TestTreeForKey(t *testing.T) {
	tb := newTestbed(t)
	hosts := tb.g.Hosts()
	if _, err := tb.ctl.Advertise("p0", hosts[0], dz.NewSet("00", "011")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Advertise("p1", hosts[1], dz.NewSet("11")); err != nil {
		t.Fatal(err)
	}
	owner := make(map[dz.Expr]core.TreeID)
	for _, tr := range tb.ctl.Trees() {
		for _, e := range tr.DZ {
			owner[e] = tr.ID
		}
	}
	for _, c := range []struct {
		key    dz.Expr
		member dz.Expr // "" = no tree
	}{
		{"0010110", "00"}, {"00", "00"}, {"0111", "011"}, {"1100000000", "11"},
		{"01", "011"}, // the key covers the member
		{"010", ""}, {"10", ""}, {"101010", ""},
	} {
		k, _ := dz.KeyOf(c.key)
		id, ok := tb.ctl.TreeFor(k)
		if want, has := owner[c.member]; ok != (c.member != "") || (ok && (!has || id != want)) {
			t.Errorf("TreeFor(%q) = %d, %v; want the tree of member %q (%d)", c.key, id, ok, c.member, want)
		}
	}
}

func TestUnadvertiseDismantlesEmptyTree(t *testing.T) {
	tb := newTestbed(t)
	hosts := tb.g.Hosts()
	if _, err := tb.ctl.Advertise("p1", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Subscribe("s1", hosts[4], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if tb.ctl.InstalledFlowCount() == 0 {
		t.Fatal("flows must exist before unadvertise")
	}
	if _, err := tb.ctl.Unadvertise("p1"); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.ctl.Trees()); got != 0 {
		t.Errorf("trees=%d, want 0", got)
	}
	if got := tb.ctl.InstalledFlowCount(); got != 0 {
		t.Errorf("flows=%d, want 0", got)
	}
	// The subscription is stored again.
	if got := tb.ctl.StoredSubscriptions(); len(got) != 1 || got[0] != "s1" {
		t.Errorf("StoredSubscriptions=%v", got)
	}
}

func TestUnadvertiseKeepsSharedTree(t *testing.T) {
	tb := newTestbed(t)
	hosts := tb.g.Hosts()
	if _, err := tb.ctl.Advertise("p1", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Advertise("p2", hosts[1], dz.NewSet("11")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Subscribe("s1", hosts[5], dz.NewSet("11")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Unadvertise("p1"); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.ctl.Trees()); got != 1 {
		t.Fatalf("trees=%d, want 1 (p2 still publishes)", got)
	}
	// p2's events still reach s1.
	tb.publish(t, hosts[1], 1000, 1000)
	tb.eng.Run()
	if got := len(tb.recv[hosts[5]]); got != 1 {
		t.Errorf("received=%d, want 1", got)
	}
}

func TestTreeMerging(t *testing.T) {
	tb := newTestbed(t, core.WithMaxTrees(2))
	hosts := tb.g.Hosts()
	// Four disjoint advertisements that canonicalise pairwise: the paper's
	// merge example {0000,0010} + {0001,0011} ⇒ {00}.
	if _, err := tb.ctl.Advertise("p1", hosts[0], dz.NewSet("0000", "0010")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Advertise("p2", hosts[1], dz.NewSet("0001", "0011")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Advertise("p3", hosts[2], dz.NewSet("11")); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.ctl.Trees()); got > 2 {
		t.Errorf("trees=%d, want ≤2 after merging", got)
	}
	assertTreesDisjoint(t, tb.ctl)
	st := tb.ctl.Stats()
	if st.TreesMerged == 0 {
		t.Error("merging must have happened")
	}
	// The {00} region lives in a single merged tree.
	found := false
	for _, tr := range tb.ctl.Trees() {
		if tr.DZ.Contains("00") {
			found = true
		}
	}
	if !found {
		t.Errorf("merged tree covering 00 missing: %v", tb.ctl.Trees())
	}
}

func TestTreeMergingPreservesDelivery(t *testing.T) {
	tb := newTestbed(t, core.WithMaxTrees(1))
	hosts := tb.g.Hosts()
	if _, err := tb.ctl.Subscribe("s1", hosts[6], dz.NewSet("00")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Subscribe("s2", hosts[7], dz.NewSet("11")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Advertise("p1", hosts[0], dz.NewSet("00")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Advertise("p2", hosts[1], dz.NewSet("11")); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.ctl.Trees()); got != 1 {
		t.Fatalf("trees=%d, want 1 after merge", got)
	}
	tb.publish(t, hosts[0], 0, 0)       // dz 00... → s1
	tb.publish(t, hosts[1], 1023, 1023) // dz 11... → s2
	tb.eng.Run()
	if len(tb.recv[hosts[6]]) != 1 || len(tb.recv[hosts[7]]) != 1 {
		t.Errorf("received s1=%d s2=%d, want 1/1",
			len(tb.recv[hosts[6]]), len(tb.recv[hosts[7]]))
	}
}

func TestContentDeliveryExactness(t *testing.T) {
	// With full-precision dz, delivery must match ground truth exactly:
	// every host with a matching subscription receives the event exactly
	// once; nobody else receives it.
	tb := newTestbed(t)
	hosts := tb.g.Hosts()
	r := rand.New(rand.NewSource(99))

	pub := hosts[0]
	advFilter := space.NewFilter() // whole space
	if _, err := tb.ctl.Advertise("p1", pub, tb.decompose(t, advFilter)); err != nil {
		t.Fatal(err)
	}

	filters := make(map[topo.NodeID][]space.Filter)
	subID := 0
	for _, h := range hosts[1:] {
		for k := 0; k < 3; k++ {
			lo0 := uint32(r.Intn(1024))
			hi0 := lo0 + uint32(r.Intn(int(1024-lo0)))
			lo1 := uint32(r.Intn(1024))
			hi1 := lo1 + uint32(r.Intn(int(1024-lo1)))
			f := space.NewFilter().Range("attr0", lo0, hi0).Range("attr1", lo1, hi1)
			filters[h] = append(filters[h], f)
			subID++
			if _, err := tb.ctl.Subscribe(fmt.Sprintf("s%d", subID), h, tb.decompose(t, f)); err != nil {
				t.Fatal(err)
			}
		}
	}

	events := make([]space.Event, 0, 40)
	for i := 0; i < 40; i++ {
		ev := tb.publish(t, pub, uint32(r.Intn(1024)), uint32(r.Intn(1024)))
		events = append(events, ev)
	}
	tb.eng.Run()

	for _, h := range hosts[1:] {
		want := 0
		for _, ev := range events {
			for _, f := range filters[h] {
				r, err := tb.sch.Rect(f)
				if err != nil {
					t.Fatal(err)
				}
				if dz.RectContainsPoint(r, ev.Values) {
					want++
					break
				}
			}
		}
		if got := len(tb.recv[h]); got != want {
			t.Errorf("host %d received %d, want %d", h, got, want)
		}
	}
}

func TestPartitionedControllerRejectsForeignHosts(t *testing.T) {
	g, err := topo.Ring(6, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.PartitionRing(g, 2); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	dp := netem.New(g, eng)
	ctl, err := core.NewController(g, dp,
		core.WithHostAddr(netem.HostAddr), core.WithPartition(0))
	if err != nil {
		t.Fatal(err)
	}
	h0 := g.HostsInPartition(0)[0]
	h1 := g.HostsInPartition(1)[0]
	if _, err := ctl.Advertise("p", h0, dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Subscribe("s", h1, dz.NewSet("1")); !errors.Is(err, core.ErrForeignNode) {
		t.Errorf("err=%v, want ErrForeignNode", err)
	}
}

func TestNewControllerValidation(t *testing.T) {
	g, _ := topo.Linear(1, topo.DefaultLinkParams)
	dp := netem.New(g, sim.NewEngine())
	if _, err := core.NewController(nil, dp, core.WithHostAddr(netem.HostAddr)); err == nil {
		t.Error("nil graph must fail")
	}
	if _, err := core.NewController(g, nil, core.WithHostAddr(netem.HostAddr)); err == nil {
		t.Error("nil programmer must fail")
	}
	if _, err := core.NewController(g, dp); err == nil {
		t.Error("missing host addr func must fail")
	}
}

func TestStatsAccumulation(t *testing.T) {
	tb := newTestbed(t)
	hosts := tb.g.Hosts()
	if _, err := tb.ctl.Advertise("p1", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Subscribe("s1", hosts[4], dz.NewSet("10")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Subscribe("s2", hosts[5], dz.NewSet("0")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ctl.Unsubscribe("s2"); err != nil {
		t.Fatal(err)
	}
	st := tb.ctl.Stats()
	if st.Advertisements != 1 || st.Subscriptions != 2 || st.Unsubscriptions != 1 {
		t.Errorf("stats=%+v", st)
	}
	if st.StoredSubs != 1 {
		t.Errorf("StoredSubs=%d, want 1 (s2 overlapped no tree)", st.StoredSubs)
	}
	if st.TreesCreated != 1 {
		t.Errorf("TreesCreated=%d", st.TreesCreated)
	}
	if st.FlowOps() == 0 {
		t.Error("flow ops must be counted")
	}
}

// TestPropertyConvergence: after any sequence of subscribe/unsubscribe
// operations (with fixed advertisements), the incrementally maintained
// tables equal those of a fresh controller that replays only the surviving
// operations. This is the master invariant covering cases (1)–(5) and the
// delete/downgrade rules of Section 3.3.
func TestPropertyConvergence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))

		build := func() (*testbed, bool) {
			g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
			if err != nil {
				return nil, false
			}
			eng := sim.NewEngine()
			dp := netem.New(g, eng)
			ctl, err := core.NewController(g, dp, core.WithHostAddr(netem.HostAddr))
			if err != nil {
				return nil, false
			}
			return &testbed{g: g, eng: eng, dp: dp, ctl: ctl}, true
		}
		inc, ok := build()
		if !ok {
			return false
		}
		hosts := inc.g.Hosts()

		type subOp struct {
			id   string
			host topo.NodeID
			set  dz.Set
		}
		nAdv := 1 + r.Intn(3)
		advs := make([]subOp, nAdv)
		for i := range advs {
			advs[i] = subOp{
				id:   fmt.Sprintf("p%d", i),
				host: hosts[r.Intn(len(hosts))],
				set:  randomDzSet(r, 2, 4),
			}
			if _, err := inc.ctl.Advertise(advs[i].id, advs[i].host, advs[i].set); err != nil {
				return false
			}
		}
		live := make(map[string]subOp)
		var order []string
		for i := 0; i < 25; i++ {
			if len(live) > 0 && r.Intn(3) == 0 {
				// Unsubscribe a random live subscription.
				keys := make([]string, 0, len(live))
				for k := range live {
					keys = append(keys, k)
				}
				id := keys[r.Intn(len(keys))]
				if _, err := inc.ctl.Unsubscribe(id); err != nil {
					return false
				}
				delete(live, id)
				continue
			}
			op := subOp{
				id:   fmt.Sprintf("s%d", i),
				host: hosts[r.Intn(len(hosts))],
				set:  randomDzSet(r, 2, 5),
			}
			if _, err := inc.ctl.Subscribe(op.id, op.host, op.set); err != nil {
				return false
			}
			live[op.id] = op
			order = append(order, op.id)
		}

		fresh, ok := build()
		if !ok {
			return false
		}
		for _, a := range advs {
			if _, err := fresh.ctl.Advertise(a.id, a.host, a.set); err != nil {
				return false
			}
		}
		for _, id := range order {
			op, stillLive := live[id]
			if !stillLive {
				continue
			}
			if _, err := fresh.ctl.Subscribe(op.id, op.host, op.set); err != nil {
				return false
			}
		}

		if err := inc.ctl.VerifyTables(); err != nil {
			return false
		}
		// Compare flow tables switch by switch.
		for _, sw := range inc.g.Switches() {
			a, err := inc.dp.Flows(sw)
			if err != nil {
				return false
			}
			b, err := fresh.dp.Flows(sw)
			if err != nil {
				return false
			}
			if len(a) != len(b) {
				return false
			}
			am := make(map[string]bool, len(a))
			for _, fl := range a {
				am[fmt.Sprintf("%s|%d|%v", fl.Expr(), fl.Priority, fl.Actions)] = true
			}
			for _, fl := range b {
				if !am[fmt.Sprintf("%s|%d|%v", fl.Expr(), fl.Priority, fl.Actions)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
