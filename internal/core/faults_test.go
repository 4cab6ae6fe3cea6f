package core_test

import (
	"errors"
	"strings"
	"testing"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/topo"
)

// flakyProgrammer injects failures into the southbound interface after a
// configurable number of successful FlowMods, counted across batches: a
// batch whose i-th op trips the fault applies ops[:i] and fails.
type flakyProgrammer struct {
	inner     core.FlowProgrammer
	failAfter int
	ops       int
	failKind  string // "add", "delete", "modify" or "" for all
}

var errSwitchGone = errors.New("switch unreachable")

func (f *flakyProgrammer) shouldFail(kind string) bool {
	f.ops++
	if f.ops <= f.failAfter {
		return false
	}
	return f.failKind == "" || f.failKind == kind
}

func (f *flakyProgrammer) ApplyBatch(sw topo.NodeID, ops []openflow.FlowOp, ids []openflow.FlowID) ([]openflow.FlowID, error) {
	for i, op := range ops {
		if f.shouldFail(op.Kind.String()) {
			ids, err := f.inner.ApplyBatch(sw, ops[:i], ids)
			if err == nil {
				err = errSwitchGone
			}
			return ids, err
		}
	}
	return f.inner.ApplyBatch(sw, ops, ids)
}

func newFlakyController(t *testing.T, failAfter int, kind string) (*core.Controller, *topo.Graph, *flakyProgrammer) {
	t.Helper()
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	dp := netem.New(g, sim.NewEngine())
	prog := &flakyProgrammer{inner: dp, failAfter: failAfter, failKind: kind}
	ctl, err := core.NewController(g, prog, core.WithHostAddr(netem.HostAddr))
	if err != nil {
		t.Fatal(err)
	}
	return ctl, g, prog
}

func TestAddFlowFailureSurfaces(t *testing.T) {
	ctl, g, _ := newFlakyController(t, 0, "add")
	hosts := g.Hosts()
	if _, err := ctl.Advertise("p", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err) // no flows yet, no southbound ops
	}
	_, err := ctl.Subscribe("s", hosts[5], dz.NewSet("1"))
	if err == nil {
		t.Fatal("southbound failure must surface")
	}
	if !errors.Is(err, errSwitchGone) {
		t.Errorf("err=%v, want wrapped errSwitchGone", err)
	}
	if !strings.Contains(err.Error(), "add flow") {
		t.Errorf("error lacks context: %v", err)
	}
}

func TestDeleteFlowFailureSurfaces(t *testing.T) {
	ctl, g, prog := newFlakyController(t, 1<<30, "delete")
	hosts := g.Hosts()
	if _, err := ctl.Advertise("p", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Subscribe("s", hosts[5], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	// Arm the fault, then force deletions via unsubscription.
	prog.failAfter = 0
	prog.ops = 0
	if _, err := ctl.Unsubscribe("s"); err == nil {
		t.Fatal("delete failure must surface")
	}
}

func TestSubscribeFailureLeavesConsistentCounters(t *testing.T) {
	ctl, g, _ := newFlakyController(t, 3, "add")
	hosts := g.Hosts()
	if _, err := ctl.Advertise("p", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	// This subscription needs more than 3 flow adds along the long path;
	// the tail fails.
	_, err := ctl.Subscribe("s", hosts[7], dz.NewSet("1"))
	if err == nil {
		t.Skip("path shorter than fault threshold on this topology")
	}
	// Stats must reflect only the operations that succeeded.
	st := ctl.Stats()
	if st.FlowAdds > 3 {
		t.Errorf("FlowAdds=%d, must not exceed successful ops", st.FlowAdds)
	}
}
