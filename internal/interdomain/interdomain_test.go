package interdomain

import (
	"fmt"
	"testing"
	"time"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
	"pleroma/internal/sim/shard"
	"pleroma/internal/space"
	"pleroma/internal/topo"
	"pleroma/internal/wire"
)

// chainTopo builds n partitions in a line, each with two switches and one
// host per switch — the shape of the paper's Figure 5 (N_c1—N_c2—N_c3).
func chainTopo(t *testing.T, n int) *topo.Graph {
	t.Helper()
	g := topo.NewGraph()
	var lastSw topo.NodeID = -1
	for p := 0; p < n; p++ {
		a := g.AddSwitch(fmt.Sprintf("P%d-A", p))
		b := g.AddSwitch(fmt.Sprintf("P%d-B", p))
		if err := g.SetPartition(a, p); err != nil {
			t.Fatal(err)
		}
		if err := g.SetPartition(b, p); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.Connect(a, b, topo.DefaultLinkParams); err != nil {
			t.Fatal(err)
		}
		if lastSw >= 0 {
			if _, _, err := g.Connect(lastSw, a, topo.DefaultLinkParams); err != nil {
				t.Fatal(err)
			}
		}
		lastSw = b
		for i, sw := range []topo.NodeID{a, b} {
			h := g.AddHost(fmt.Sprintf("h%d-%d", p, i))
			if _, _, err := g.Connect(h, sw, topo.DefaultLinkParams); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := g.InheritHostPartitions(); err != nil {
		t.Fatal(err)
	}
	return g
}

type fixture struct {
	g    *topo.Graph
	eng  *sim.Engine
	dp   *netem.DataPlane
	fab  *Fabric
	sch  *space.Schema
	recv map[topo.NodeID]int
}

func newFixture(t *testing.T, g *topo.Graph, opts ...Option) *fixture {
	t.Helper()
	eng := sim.NewEngine()
	dp := netem.New(g, eng)
	fab, err := NewFabric(g, dp, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := space.UniformSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{g: g, eng: eng, dp: dp, fab: fab, sch: sch, recv: make(map[topo.NodeID]int)}
	for _, h := range g.Hosts() {
		h := h
		if err := dp.ConfigureHost(h, netem.HostConfig{}, func(netem.Delivery) {
			fx.recv[h]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	return fx
}

func (fx *fixture) publish(t *testing.T, host topo.NodeID, expr dz.Expr) {
	t.Helper()
	if err := fx.dp.Publish(host, expr, space.Event{}, 64); err != nil {
		t.Fatal(err)
	}
}

func TestBorderDiscoveryChain(t *testing.T) {
	g := chainTopo(t, 3)
	fx := newFixture(t, g)
	if got := fx.fab.Partitions(); len(got) != 3 {
		t.Fatalf("partitions=%v", got)
	}
	if nb := fx.fab.Neighbors(0); len(nb) != 1 || nb[0] != 1 {
		t.Errorf("neighbors(0)=%v, want [1]", nb)
	}
	if nb := fx.fab.Neighbors(1); len(nb) != 2 {
		t.Errorf("neighbors(1)=%v, want [0 2]", nb)
	}
	if nb := fx.fab.Neighbors(2); len(nb) != 1 || nb[0] != 1 {
		t.Errorf("neighbors(2)=%v, want [1]", nb)
	}
	bps := fx.fab.BorderPorts(0, 1)
	if len(bps) != 1 {
		t.Fatalf("border ports 0→1: %v", bps)
	}
	if g.Partition(bps[0].LocalSwitch) != 0 {
		t.Error("border switch must belong to the local partition")
	}
	peer, ok := g.PortToPeer(bps[0].LocalSwitch, bps[0].LocalPort)
	if !ok || g.Partition(peer) != 1 {
		t.Error("border port must lead to the neighbour partition")
	}
	if _, err := fx.fab.Controller(0); err != nil {
		t.Error(err)
	}
	if _, err := fx.fab.Controller(99); err == nil {
		t.Error("unknown partition must fail")
	}
}

func TestBorderDiscoveryRing(t *testing.T) {
	g, err := topo.Ring(9, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.PartitionRing(g, 3); err != nil {
		t.Fatal(err)
	}
	fx := newFixture(t, g)
	for _, p := range fx.fab.Partitions() {
		if nb := fx.fab.Neighbors(p); len(nb) != 2 {
			t.Errorf("ring partition %d has neighbors %v, want 2", p, nb)
		}
	}
}

// TestFigure5Scenario replays Section 4.2's example: p1 advertises {0} in
// partition 0; s1 in partition 2 subscribes {00} (forwarded 2→1→0); a
// later subscription {000} in partition 1 is NOT forwarded to partition 0
// because s1's covers it.
func TestFigure5Scenario(t *testing.T) {
	g := chainTopo(t, 3)
	fx := newFixture(t, g)
	p0Hosts := g.HostsInPartition(0)
	p1Hosts := g.HostsInPartition(1)
	p2Hosts := g.HostsInPartition(2)

	if err := fx.fab.Advertise("p1", p0Hosts[0], dz.NewSet("0")); err != nil {
		t.Fatal(err)
	}
	// The advertisement flooded 0→1→2: two controller-to-controller
	// messages.
	st := fx.fab.Stats()
	if st.MessagesSent != 2 {
		t.Errorf("messages after advertise=%d, want 2", st.MessagesSent)
	}

	if err := fx.fab.Subscribe("s1", p2Hosts[0], dz.NewSet("00")); err != nil {
		t.Fatal(err)
	}
	st = fx.fab.Stats()
	if st.MessagesSent != 4 { // +2: subscription 2→1 and 1→0
		t.Errorf("messages after s1=%d, want 4", st.MessagesSent)
	}

	if err := fx.fab.Subscribe("s2", p1Hosts[0], dz.NewSet("000")); err != nil {
		t.Fatal(err)
	}
	st = fx.fab.Stats()
	if st.MessagesSent != 4 {
		t.Errorf("covered subscription must not be forwarded: messages=%d, want 4", st.MessagesSent)
	}
	if st.SuppressedByCovering == 0 {
		t.Error("suppression counter must increase")
	}

	// Both subscribers receive a matching event published by p1.
	fx.publish(t, p0Hosts[0], "0000000000")
	fx.eng.Run()
	if fx.recv[p2Hosts[0]] != 1 {
		t.Errorf("s1 received %d, want 1", fx.recv[p2Hosts[0]])
	}
	if fx.recv[p1Hosts[0]] != 1 {
		t.Errorf("s2 received %d, want 1", fx.recv[p1Hosts[0]])
	}
	// An event outside both subscriptions stays local.
	fx.publish(t, p0Hosts[0], "0100000000")
	fx.eng.Run()
	if fx.recv[p2Hosts[0]] != 1 || fx.recv[p1Hosts[0]] != 1 {
		t.Error("non-matching event must not be delivered")
	}
}

func TestCoveringDisabledForwardsEverything(t *testing.T) {
	g := chainTopo(t, 3)
	fx := newFixture(t, g, WithCovering(false))
	p0 := g.HostsInPartition(0)
	p1 := g.HostsInPartition(1)
	p2 := g.HostsInPartition(2)

	if err := fx.fab.Advertise("p1", p0[0], dz.NewSet("0")); err != nil {
		t.Fatal(err)
	}
	if err := fx.fab.Subscribe("s1", p2[0], dz.NewSet("00")); err != nil {
		t.Fatal(err)
	}
	before := fx.fab.Stats().MessagesSent
	if err := fx.fab.Subscribe("s2", p1[0], dz.NewSet("000")); err != nil {
		t.Fatal(err)
	}
	after := fx.fab.Stats().MessagesSent
	if after <= before {
		t.Errorf("without covering, the covered subscription must be forwarded (%d→%d)", before, after)
	}
	if fx.fab.Stats().SuppressedByCovering != 0 {
		t.Error("no suppression expected with covering off")
	}
}

func TestSubscribeBeforeAdvertiseAcrossPartitions(t *testing.T) {
	g := chainTopo(t, 3)
	fx := newFixture(t, g)
	p0 := g.HostsInPartition(0)
	p2 := g.HostsInPartition(2)

	// Subscription first: nothing to forward yet.
	if err := fx.fab.Subscribe("s1", p2[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if got := fx.fab.Stats().MessagesSent; got != 0 {
		t.Errorf("messages=%d, want 0 (no advertisement yet)", got)
	}
	// Advertisement later: it floods and the stored subscription chases it
	// back hop by hop.
	if err := fx.fab.Advertise("p1", p0[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	fx.publish(t, p0[0], "1110000000")
	fx.eng.Run()
	if fx.recv[p2[0]] != 1 {
		t.Errorf("late-advertised event not delivered: recv=%d", fx.recv[p2[0]])
	}
}

func TestRingFloodingTerminatesAndDeduplicates(t *testing.T) {
	g, err := topo.Ring(9, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.PartitionRing(g, 3); err != nil {
		t.Fatal(err)
	}
	fx := newFixture(t, g)
	h0 := g.HostsInPartition(0)[0]
	// Advertising in a cyclic partition graph must terminate (dedup kills
	// the flood) — reaching this line at all is most of the test.
	if err := fx.fab.Advertise("p1", h0, dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		ctl, err := fx.fab.Controller(p)
		if err != nil {
			t.Fatal(err)
		}
		trees := ctl.Trees()
		var union dz.Set
		for _, tr := range trees {
			union = union.Union(tr.DZ)
		}
		if !union.Covers(dz.NewSet("1")) {
			t.Errorf("partition %d did not register the external advertisement: %v", p, union)
		}
	}
	// Delivery across the ring works.
	h2 := g.HostsInPartition(2)[1]
	if err := fx.fab.Subscribe("s1", h2, dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	fx.publish(t, h0, "1010101010")
	fx.eng.Run()
	if fx.recv[h2] != 1 {
		t.Errorf("ring delivery failed: recv=%d", fx.recv[h2])
	}
}

func TestUnsubscribeRevivesCoveredSubscription(t *testing.T) {
	g := chainTopo(t, 2)
	fx := newFixture(t, g)
	p0 := g.HostsInPartition(0)
	p1 := g.HostsInPartition(1)

	if err := fx.fab.Advertise("pub", p0[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	// s1 covers s2: s2's forwarding is suppressed.
	if err := fx.fab.Subscribe("s1", p1[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if err := fx.fab.Subscribe("s2", p1[1], dz.NewSet("10")); err != nil {
		t.Fatal(err)
	}
	if fx.fab.Stats().SuppressedByCovering == 0 {
		t.Fatal("s2 must be suppressed by s1's covering subscription")
	}
	// When s1 leaves, s2's inter-partition path must be rebuilt.
	if err := fx.fab.Unsubscribe("s1"); err != nil {
		t.Fatal(err)
	}
	fx.publish(t, p0[0], "1010101010")
	fx.eng.Run()
	if fx.recv[p1[1]] != 1 {
		t.Errorf("s2 lost its path after covering unsubscription: recv=%d", fx.recv[p1[1]])
	}
	if fx.recv[p1[0]] != 0 {
		t.Errorf("unsubscribed s1 must not receive: recv=%d", fx.recv[p1[0]])
	}
}

// TestSinglePartitionUnsubscribeIsLocal: with one partition there is no
// neighbour to re-propagate to, so an unsubscribe must neither keep a
// received-set behind nor redo work per surviving subscription.
func TestSinglePartitionUnsubscribeIsLocal(t *testing.T) {
	const n = 300
	g := chainTopo(t, 1)
	fx := newFixture(t, g)
	hosts := g.Hosts()
	if err := fx.fab.Advertise("p", hosts[0], dz.NewSet("")); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if err := fx.fab.Subscribe("probe", hosts[1], dz.NewSet("11")); err != nil {
			t.Fatal(err)
		}
		if err := fx.fab.Unsubscribe("probe"); err != nil {
			t.Fatal(err)
		}
	}
	alone := testing.AllocsPerRun(20, cycle)
	for i := 0; i < n; i++ {
		if err := fx.fab.Subscribe(fmt.Sprintf("s%d", i), hosts[1], dz.NewSet(dz.Expr(fmt.Sprintf("%09b", i)))); err != nil {
			t.Fatal(err)
		}
	}
	// The probe's subspace is disjoint from every survivor's, so the
	// controller's work per cycle is the same; a re-propagation clones each
	// of the n survivors' sets.
	crowded := testing.AllocsPerRun(20, cycle)
	t.Logf("allocs per cycle: %.0f alone, %.0f with %d deployed", alone, crowded, n)
	if crowded > alone+n/2 {
		t.Errorf("subscribe+unsubscribe allocates %.0f with %d deployed, %.0f alone", crowded, n, alone)
	}
	for i := 0; i < n; i++ {
		if err := fx.fab.Unsubscribe(fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fx.fab.Unadvertise("p"); err != nil {
		t.Fatal(err)
	}
	s := fx.fab.parts[0]
	if len(s.localSubs) != 0 || len(s.rcvdSub) != 0 || len(fx.fab.subHome) != 0 {
		t.Errorf("state left: %d localSubs, %d rcvdSub, %d subHome", len(s.localSubs), len(s.rcvdSub), len(fx.fab.subHome))
	}
	if st := fx.fab.Stats(); st.MessagesSent != 0 {
		t.Errorf("MessagesSent=%d in a fabric without neighbours", st.MessagesSent)
	}
	if err := fx.fab.VerifyTables(); err != nil {
		t.Fatal(err)
	}
}

func TestUnadvertiseTearsDownRemotePaths(t *testing.T) {
	g := chainTopo(t, 2)
	fx := newFixture(t, g)
	p0 := g.HostsInPartition(0)
	p1 := g.HostsInPartition(1)

	if err := fx.fab.Advertise("pub", p0[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if err := fx.fab.Subscribe("s1", p1[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if err := fx.fab.Unadvertise("pub"); err != nil {
		t.Fatal(err)
	}
	// Both partitions' controllers must be flow-free.
	for _, p := range fx.fab.Partitions() {
		ctl, err := fx.fab.Controller(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := ctl.InstalledFlowCount(); got != 0 {
			t.Errorf("partition %d still has %d flows", p, got)
		}
	}
	fx.publish(t, p0[0], "1010101010")
	fx.eng.Run()
	if fx.recv[p1[0]] != 0 {
		t.Error("event delivered after unadvertise")
	}
}

func TestFabricValidation(t *testing.T) {
	g := chainTopo(t, 2)
	fx := newFixture(t, g)
	sw := g.Switches()[0]
	if err := fx.fab.Advertise("p", sw, dz.NewSet("1")); err == nil {
		t.Error("advertising from a switch must fail")
	}
	h := g.HostsInPartition(0)[0]
	if err := fx.fab.Advertise("p", h, dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if err := fx.fab.Advertise("p", h, dz.NewSet("0")); err == nil {
		t.Error("duplicate advertisement id must fail")
	}
	if err := fx.fab.Subscribe("s", h, dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if err := fx.fab.Subscribe("s", h, dz.NewSet("0")); err == nil {
		t.Error("duplicate subscription id must fail")
	}
	if err := fx.fab.Unsubscribe("ghost"); err == nil {
		t.Error("unknown unsubscribe must fail")
	}
	if err := fx.fab.Unadvertise("ghost"); err == nil {
		t.Error("unknown unadvertise must fail")
	}
}

func TestStatsAggregation(t *testing.T) {
	g := chainTopo(t, 3)
	fx := newFixture(t, g)
	p0 := g.HostsInPartition(0)
	p2 := g.HostsInPartition(2)
	if err := fx.fab.Advertise("p1", p0[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if err := fx.fab.Subscribe("s1", p2[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	st := fx.fab.Stats()
	if st.PerController[0].Internal != 1 {
		t.Errorf("P0 internal=%d, want 1", st.PerController[0].Internal)
	}
	if st.PerController[2].Internal != 1 {
		t.Errorf("P2 internal=%d, want 1", st.PerController[2].Internal)
	}
	if st.PerController[1].External != 2 { // adv passing + sub passing
		t.Errorf("P1 external=%d, want 2", st.PerController[1].External)
	}
	if st.TotalControlTraffic() != 2+st.MessagesSent {
		t.Errorf("TotalControlTraffic=%d", st.TotalControlTraffic())
	}
}

// TestLLDPDiscoveryMatchesStatic: the packet-based LLDP exchange must
// discover exactly the same border ports as the direct topology read, on
// both a partitioned ring and a partitioned fat-tree.
func TestLLDPDiscoveryMatchesStatic(t *testing.T) {
	build := func(t *testing.T, static bool) *Fabric {
		t.Helper()
		g, err := topo.Ring(12, topo.DefaultLinkParams)
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.PartitionRing(g, 4); err != nil {
			t.Fatal(err)
		}
		dp := netem.New(g, sim.NewEngine())
		opts := []Option{}
		if static {
			opts = append(opts, WithStaticDiscovery())
		}
		fab, err := NewFabric(g, dp, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return fab
	}
	lldp := build(t, false)
	static := build(t, true)
	for _, p := range lldp.Partitions() {
		for _, nb := range lldp.Neighbors(p) {
			a := lldp.BorderPorts(p, nb)
			b := static.BorderPorts(p, nb)
			if len(a) != len(b) {
				t.Fatalf("partition %d→%d: lldp=%v static=%v", p, nb, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("partition %d→%d border %d: lldp=%+v static=%+v", p, nb, i, a[i], b[i])
				}
			}
		}
	}
}

// TestShardedLLDPDiscoveryMatchesStatic: on a data plane split over four
// shard engines the discovery probes' punts reach the fabric through the
// control engine, on the goroutine driving the run — the collection takes
// no lock, and the race detector watches it — and the discovered border
// ports are exactly the direct topology read's.
func TestShardedLLDPDiscoveryMatchesStatic(t *testing.T) {
	build := func(t *testing.T, shards int, opts ...Option) *Fabric {
		t.Helper()
		g, err := topo.FatTree(4, 4, 2, topo.DefaultLinkParams)
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.PartitionFatTree(g, 3); err != nil {
			t.Fatal(err)
		}
		assign, n := topo.ShardNodes(g, shards)
		lookahead, _ := topo.MinCutLatency(g, assign)
		coord, err := shard.New(n, lookahead)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		dp := netem.New(g, coord.Engine(0))
		if err := dp.EnableSharding(coord, assign); err != nil {
			t.Fatal(err)
		}
		if shards > 1 && !dp.Sharded() {
			t.Fatal("data plane did not shard")
		}
		fab, err := NewFabric(g, dp, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return fab
	}
	lldp := build(t, 4)
	static := build(t, 1, WithStaticDiscovery())
	for _, p := range static.Partitions() {
		if got, want := lldp.Neighbors(p), static.Neighbors(p); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("partition %d neighbours: sharded lldp %v, static %v", p, got, want)
		}
		for _, nb := range static.Neighbors(p) {
			a, b := lldp.BorderPorts(p, nb), static.BorderPorts(p, nb)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Errorf("partition %d→%d: sharded lldp %+v, static %+v", p, nb, a, b)
			}
		}
	}
}

// TestLLDPDiscoveryFatTree exercises discovery on the pod-partitioned
// fat-tree, where partitions meet only at pod-to-core links.
func TestLLDPDiscoveryFatTree(t *testing.T) {
	g, err := topo.FatTree(4, 4, 1, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.PartitionFatTree(g, 3); err != nil {
		t.Fatal(err)
	}
	dp := netem.New(g, sim.NewEngine())
	fab, err := NewFabric(g, dp)
	if err != nil {
		t.Fatal(err)
	}
	// Partitions 1 and 2 (single pods) border only partition 0 (cores).
	for _, p := range []int{1, 2} {
		nbs := fab.Neighbors(p)
		if len(nbs) != 1 || nbs[0] != 0 {
			t.Errorf("partition %d neighbors=%v, want [0]", p, nbs)
		}
		bps := fab.BorderPorts(p, 0)
		if len(bps) == 0 {
			t.Errorf("partition %d has no border ports", p)
		}
		for _, bp := range bps {
			if g.Partition(bp.LocalSwitch) != p {
				t.Errorf("border local switch in wrong partition: %+v", bp)
			}
			if g.Partition(bp.RemoteSwitch) != 0 {
				t.Errorf("border remote switch in wrong partition: %+v", bp)
			}
		}
	}
	// Cross-partition delivery still works after LLDP discovery.
	sch, err := space.UniformSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	_ = sch
	h0 := g.HostsInPartition(1)[0]
	h1 := g.HostsInPartition(2)[0]
	if err := fab.Advertise("p", h0, dz.NewSet(dz.Whole)); err != nil {
		t.Fatal(err)
	}
	if err := fab.Subscribe("s", h1, dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	recv := 0
	if err := dp.ConfigureHost(h1, netem.HostConfig{}, func(netem.Delivery) { recv++ }); err != nil {
		t.Fatal(err)
	}
	if err := dp.Publish(h0, "1111", space.Event{}, 64); err != nil {
		t.Fatal(err)
	}
	dp.Engine().Run()
	if recv != 1 {
		t.Errorf("cross-partition delivery after LLDP discovery: recv=%d", recv)
	}
}

func TestInBandSignalling(t *testing.T) {
	g := chainTopo(t, 2)
	fx := newFixture(t, g)
	fx.fab.EnableInBandSignalling(2 * time.Millisecond)
	p0 := g.HostsInPartition(0)
	p1 := g.HostsInPartition(1)

	if err := fx.fab.SendSignal(SignalRequest{
		Op: wire.OpAdvertise, ID: "p", Host: p0[0], Set: dz.NewSet("1"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := fx.fab.SendSignal(SignalRequest{
		Op: wire.OpSubscribe, ID: "s", Host: p1[0], Set: dz.NewSet("1"),
	}); err != nil {
		t.Fatal(err)
	}
	// Nothing has taken effect yet: the requests are in flight.
	if got := fx.fab.SignalStats().Handled; got != 0 {
		t.Errorf("handled before Run=%d", got)
	}
	fx.eng.Run()
	st := fx.fab.SignalStats()
	if st.Handled != 2 || st.Errors != 0 {
		t.Fatalf("signal stats=%+v", st)
	}
	// The activated paths deliver.
	fx.publish(t, p0[0], "1010101010")
	fx.eng.Run()
	if fx.recv[p1[0]] != 1 {
		t.Errorf("recv=%d after in-band activation", fx.recv[p1[0]])
	}
	// Unsubscribe in-band, too.
	if err := fx.fab.SendSignal(SignalRequest{Op: wire.OpUnsubscribe, ID: "s", Host: p1[0]}); err != nil {
		t.Fatal(err)
	}
	fx.eng.Run()
	fx.publish(t, p0[0], "1110000000")
	fx.eng.Run()
	if fx.recv[p1[0]] != 1 {
		t.Errorf("delivery after in-band unsubscribe: recv=%d", fx.recv[p1[0]])
	}
}

func TestInBandSignallingErrors(t *testing.T) {
	g := chainTopo(t, 2)
	fx := newFixture(t, g)
	fx.fab.EnableInBandSignalling(time.Millisecond)
	p0 := g.HostsInPartition(0)
	// An unknown op is rejected synchronously by the wire codec.
	if err := fx.fab.SendSignal(SignalRequest{Op: "bogus", ID: "x", Host: p0[0]}); err == nil {
		t.Error("unknown op must fail to encode")
	}
	// An unknown unsubscribe travels the wire and fails at the controller.
	if err := fx.fab.SendSignal(SignalRequest{Op: wire.OpUnsubscribe, ID: "ghost", Host: p0[0]}); err != nil {
		t.Fatal(err)
	}
	// Sending from a switch is rejected synchronously.
	if err := fx.fab.SendSignal(SignalRequest{Op: wire.OpSubscribe, ID: "s", Host: g.Switches()[0]}); err == nil {
		t.Error("signal from a switch must fail")
	}
	fx.eng.Run()
	st := fx.fab.SignalStats()
	if st.Handled != 1 || st.Errors != 1 {
		t.Errorf("signal stats=%+v", st)
	}
}

func TestActivationLatencyObservable(t *testing.T) {
	// The time between sending an in-band subscription and the moment
	// events start arriving is positive and at least the processing delay.
	g := chainTopo(t, 2)
	fx := newFixture(t, g)
	const proc = 5 * time.Millisecond
	fx.fab.EnableInBandSignalling(proc)
	p0 := g.HostsInPartition(0)
	p1 := g.HostsInPartition(1)

	if err := fx.fab.SendSignal(SignalRequest{
		Op: wire.OpAdvertise, ID: "p", Host: p0[0], Set: dz.NewSet("1"),
	}); err != nil {
		t.Fatal(err)
	}
	fx.eng.Run()

	sentAt := fx.eng.Now()
	if err := fx.fab.SendSignal(SignalRequest{
		Op: wire.OpSubscribe, ID: "s", Host: p1[0], Set: dz.NewSet("1"),
	}); err != nil {
		t.Fatal(err)
	}
	// Publish a steady stream; only events after activation arrive.
	for i := 0; i < 100; i++ {
		at := sentAt + time.Duration(i)*200*time.Microsecond
		if err := fx.dp.PublishAt(at, p0[0], "1010101010", space.Event{}, 64); err != nil {
			t.Fatal(err)
		}
	}
	fx.eng.Run()
	got := fx.recv[p1[0]]
	if got == 0 || got == 100 {
		t.Fatalf("activation must lose the leading events only: recv=%d", got)
	}
	missed := 100 - got
	if time.Duration(missed)*200*time.Microsecond < proc {
		t.Errorf("activation latency below processing delay: missed=%d", missed)
	}
}

// multiBorderTopo: two partitions joined by TWO parallel border links.
func multiBorderTopo(t *testing.T) *topo.Graph {
	t.Helper()
	g := topo.NewGraph()
	a1 := g.AddSwitch("A1")
	a2 := g.AddSwitch("A2")
	b1 := g.AddSwitch("B1")
	b2 := g.AddSwitch("B2")
	for _, sw := range []topo.NodeID{b1, b2} {
		if err := g.SetPartition(sw, 1); err != nil {
			t.Fatal(err)
		}
	}
	links := [][2]topo.NodeID{
		{a1, a2}, {b1, b2}, // intra-partition
		{a1, b1}, {a2, b2}, // two parallel borders
	}
	for _, l := range links {
		if _, _, err := g.Connect(l[0], l[1], topo.DefaultLinkParams); err != nil {
			t.Fatal(err)
		}
	}
	for i, sw := range []topo.NodeID{a1, a2, b1, b2} {
		h := g.AddHost(fmt.Sprintf("h%d", i))
		if _, _, err := g.Connect(h, sw, topo.DefaultLinkParams); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.InheritHostPartitions(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMultiBorderCanonicalCrossing(t *testing.T) {
	g := multiBorderTopo(t)
	fx := newFixture(t, g)

	// Both sides see two border ports, and index 0 refers to the SAME
	// physical link on both sides.
	a := fx.fab.BorderPorts(0, 1)
	b := fx.fab.BorderPorts(1, 0)
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("border ports a=%v b=%v", a, b)
	}
	for i := range a {
		if a[i].LocalSwitch != b[i].RemoteSwitch || a[i].RemoteSwitch != b[i].LocalSwitch {
			t.Fatalf("border %d not symmetric: %+v vs %+v", i, a[i], b[i])
		}
	}

	// End-to-end delivery uses the canonical crossing exactly once.
	hosts := g.Hosts()
	var p0Host, p1Host topo.NodeID = -1, -1
	for _, h := range hosts {
		if g.Partition(h) == 0 && p0Host < 0 {
			p0Host = h
		}
		if g.Partition(h) == 1 && p1Host < 0 {
			p1Host = h
		}
	}
	if err := fx.fab.Advertise("p", p0Host, dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if err := fx.fab.Subscribe("s", p1Host, dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	fx.publish(t, p0Host, "1010101010")
	fx.eng.Run()
	if fx.recv[p1Host] != 1 {
		t.Errorf("multi-border delivery: recv=%d, want exactly 1", fx.recv[p1Host])
	}
}

func TestWithControllerOptions(t *testing.T) {
	g := chainTopo(t, 2)
	dp := netem.New(g, sim.NewEngine())
	fab, err := NewFabric(g, dp,
		WithControllerOptions(core.WithMaxTrees(1)))
	if err != nil {
		t.Fatal(err)
	}
	h := g.HostsInPartition(0)
	// Two disjoint advertisements in partition 0 must merge into one tree.
	if err := fab.Advertise("p1", h[0], dz.NewSet("00")); err != nil {
		t.Fatal(err)
	}
	if err := fab.Advertise("p2", h[1], dz.NewSet("11")); err != nil {
		t.Fatal(err)
	}
	ctl, err := fab.Controller(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ctl.Trees()); got != 1 {
		t.Errorf("trees=%d, want 1 (merge threshold passed through)", got)
	}
}
