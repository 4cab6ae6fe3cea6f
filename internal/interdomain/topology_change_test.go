package interdomain

import (
	"errors"
	"strings"
	"testing"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
)

// TestHandleTopologyChangeBestEffortTeardown forces replica-teardown
// failures and checks the rebuild still completes: a stale replica id
// (e.g. a controller that already lost the client with its switch) must
// not abort the topology-change handling halfway, leaving the fabric
// inconsistent. All teardown errors surface joined in the returned error,
// and the fabric stays fully functional afterwards.
func TestHandleTopologyChangeBestEffortTeardown(t *testing.T) {
	g := chainTopo(t, 3)
	fx := newFixture(t, g, WithStaticDiscovery())
	hosts := g.Hosts()
	if err := fx.fab.Advertise("p", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if err := fx.fab.Subscribe("s", hosts[len(hosts)-1], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if len(fx.fab.advReplicas["p"]) == 0 || len(fx.fab.subReplicas["s"]) == 0 {
		t.Fatalf("fixture must create replicas (adv=%v sub=%v)",
			fx.fab.advReplicas, fx.fab.subReplicas)
	}

	// Poison both replica lists with ids their controllers never saw.
	p0 := fx.fab.Partitions()[0]
	fx.fab.advReplicas["p"] = append(fx.fab.advReplicas["p"], replica{part: p0, id: "ghost-adv"})
	fx.fab.subReplicas["s"] = append(fx.fab.subReplicas["s"], replica{part: p0, id: "ghost-sub"})

	err := fx.fab.HandleTopologyChange()
	if err == nil {
		t.Fatal("poisoned teardown must surface an error")
	}
	if !errors.Is(err, core.ErrUnknownClient) {
		t.Errorf("err=%v, want wrapped core.ErrUnknownClient", err)
	}
	// Both failures are collected, not just the first.
	for _, want := range []string{"ghost-adv", "ghost-sub"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err=%v, want it to mention %s", err, want)
		}
	}

	// Despite the teardown errors the rebuild ran to completion: the
	// replica maps were re-populated by the re-propagation and the poison
	// entries are gone.
	if len(fx.fab.advReplicas["p"]) == 0 || len(fx.fab.subReplicas["s"]) == 0 {
		t.Errorf("rebuild must re-create replicas (adv=%v sub=%v)",
			fx.fab.advReplicas, fx.fab.subReplicas)
	}
	for _, r := range fx.fab.advReplicas["p"] {
		if strings.HasPrefix(r.id, "ghost") {
			t.Errorf("poison replica survived: %v", r)
		}
	}

	// A clean follow-up topology change succeeds, and the flow state is
	// consistent everywhere.
	if err := fx.fab.HandleTopologyChange(); err != nil {
		t.Fatalf("clean topology change after recovery: %v", err)
	}
	if err := fx.fab.VerifyTables(); err != nil {
		t.Errorf("VerifyTables: %v", err)
	}
}

// TestFabricResyncAllHealsAcrossPartitions checks the fabric-level
// anti-entropy aggregation against an injected mid-batch fault.
func TestFabricResyncAllHealsAcrossPartitions(t *testing.T) {
	g := chainTopo(t, 2)
	dp := netem.New(g, sim.NewEngine())
	faulty := netem.WithFaults(dp, netem.FaultConfig{})
	fab, err := NewFabric(g, dp, WithStaticDiscovery(),
		WithFlowProgrammer(faulty))
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	if err := fab.Advertise("p", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	faulty.FailNextBatch(0)
	if err := fab.Subscribe("s", hosts[len(hosts)-1], dz.NewSet("1")); err != nil {
		t.Fatalf("transient fault must not fail the subscription: %v", err)
	}
	if deg := fab.DegradedSwitches(); len(deg) == 0 {
		t.Fatal("a switch must be quarantined")
	}
	if err := fab.VerifyTables(); err == nil {
		t.Fatal("divergence must be detectable")
	}
	rr, err := fab.ResyncAll()
	if err != nil {
		t.Fatalf("ResyncAll: %v", err)
	}
	if rr.Healed == 0 || len(rr.StillDegraded) != 0 {
		t.Fatalf("report=%+v, want healed", rr)
	}
	if err := fab.VerifyTables(); err != nil {
		t.Errorf("VerifyTables after resync: %v", err)
	}
}
