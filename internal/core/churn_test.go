package core_test

import (
	"hash/fnv"
	"testing"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
	"pleroma/internal/workload"
)

// churnController builds a controller plus the schema and hosts the churn
// driver needs.
func churnController(t *testing.T) (*core.Controller, *netem.DataPlane, *space.Schema, *topo.Graph) {
	t.Helper()
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	dp := netem.New(g, sim.NewEngine())
	ctl, err := core.NewController(g, dp, core.WithHostAddr(netem.HostAddr))
	if err != nil {
		t.Fatal(err)
	}
	sch, err := space.UniformSchema(3)
	if err != nil {
		t.Fatal(err)
	}
	return ctl, dp, sch, g
}

func hostFor(hosts []topo.NodeID, id string) topo.NodeID {
	h := fnv.New32a()
	h.Write([]byte(id))
	return hosts[int(h.Sum32())%len(hosts)]
}

// TestChurnVerifiesTables drives a seeded stream of advertisements,
// subscriptions and their inverses through one controller and checks that
// its flow tables are exactly reconstructible afterwards and that it and
// the data plane count the same southbound calls. The same invariant under
// concurrent sessions is TestNetworkConcurrentSessionsChurn's, at the daemon
// boundary.
func TestChurnVerifiesTables(t *testing.T) {
	ctl, dp, sch, g := churnController(t)
	hosts := g.Hosts()

	// A standing publisher over the whole space keeps every subscription
	// flow-installing rather than stored-only.
	whole, err := sch.DecomposeLimited(space.NewFilter(), 24, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Advertise("base", hosts[0], whole); err != nil {
		t.Fatal(err)
	}

	decompose := func(rect dz.Rect) (dz.Set, error) {
		return sch.DecomposeRectLimited(rect, 24, 16)
	}
	ops := workload.ChurnOps{
		Subscribe: func(id string, rect dz.Rect) error {
			set, err := decompose(rect)
			if err != nil {
				return err
			}
			_, err = ctl.Subscribe(id, hostFor(hosts, id), set)
			return err
		},
		Unsubscribe: func(id string) error {
			_, err := ctl.Unsubscribe(id)
			return err
		},
		Advertise: func(id string, rect dz.Rect) error {
			set, err := decompose(rect)
			if err != nil {
				return err
			}
			_, err = ctl.Advertise(id, hostFor(hosts, id), set)
			return err
		},
		Unadvertise: func(id string) error {
			_, err := ctl.Unadvertise(id)
			return err
		},
	}
	st, err := workload.RunChurn(sch, workload.ChurnConfig{Ops: 480, Seed: 99}, ops)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mutations() != 480 {
		t.Errorf("mutations=%d, want 480", st.Mutations())
	}

	// The invariant that matters: after the churn, the installed hardware
	// state must match a from-scratch reconstruction.
	if err := ctl.VerifyTables(); err != nil {
		t.Fatalf("tables inconsistent after churn: %v", err)
	}
	if ctl.InstalledFlowCount() == 0 || len(ctl.Trees()) == 0 {
		t.Error("churn left no trees or flows behind")
	}
	stats := ctl.Stats()
	if stats.SouthboundCalls == 0 {
		t.Error("expected southbound traffic")
	}
	if dp.SouthboundCalls() != stats.SouthboundCalls {
		t.Errorf("southbound call accounting differs: dataplane=%d controller=%d",
			dp.SouthboundCalls(), stats.SouthboundCalls)
	}
}

// TestBatchedProgrammingBoundsSouthboundCalls checks the OpenFlow-bundle
// property: one control operation issues at most one southbound call per
// touched switch, however many FlowMods it carries.
func TestBatchedProgrammingBoundsSouthboundCalls(t *testing.T) {
	ctl, dp, sch, g := churnController(t)
	hosts := g.Hosts()
	whole, err := sch.DecomposeLimited(space.NewFilter(), 24, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Advertise("pub", hosts[0], whole); err != nil {
		t.Fatal(err)
	}
	switches := len(g.Switches())
	rep, err := ctl.Subscribe("s", hosts[5], whole)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlowOps() == 0 {
		t.Fatal("subscription installed no flows")
	}
	if rep.SouthboundCalls > switches {
		t.Errorf("SouthboundCalls=%d exceeds touched-switch bound %d",
			rep.SouthboundCalls, switches)
	}
	if rep.SouthboundCalls > rep.FlowOps() {
		t.Errorf("batching ineffective: %d calls for %d ops", rep.SouthboundCalls, rep.FlowOps())
	}
	if got := dp.SouthboundCalls(); got != uint64(rep.SouthboundCalls) {
		t.Errorf("dataplane counted %d southbound calls, report says %d", got, rep.SouthboundCalls)
	}
}
