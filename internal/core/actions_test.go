package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/openflow"
	"pleroma/internal/space"
	"pleroma/internal/topo"
)

// TestInstructionSetsInterned runs a seeded script of control operations on
// FatTree(4,4,2), rebuilds the trees around a failed link and restores a
// snapshot into a second controller. Afterwards every instruction set — in
// either controller's installed state and in the switches' tables — equals
// what actionsFor derives for its ports, the controllers hold exactly the
// interned lists, and no switch holds more distinct lists than port sets.
func TestInstructionSetsInterned(t *testing.T) {
	c, hosts := newFatTreeController(t)
	dp := c.prog.(*netem.DataPlane)
	sch, err := space.UniformSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	randSet := func() dz.Set {
		side := 1 << (2 + rng.Intn(9))
		domain := 1 << space.DefaultBits
		a, b := uint32(rng.Intn(domain-side+1)), uint32(rng.Intn(domain-side+1))
		set, err := sch.DecomposeRectLimited(dz.Rect{
			{Lo: a, Hi: a + uint32(rng.Intn(side))},
			{Lo: b, Hi: b + uint32(rng.Intn(side))},
		}, 24, 16)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	var subs []string
	for i := 0; i < 200; i++ {
		host := hosts[rng.Intn(len(hosts))]
		var err error
		switch k := rng.Intn(10); {
		case i < 4 || k < 2:
			_, err = c.Advertise(fmt.Sprintf("p%d", i), host, randSet())
		case k < 7 || len(subs) == 0:
			id := fmt.Sprintf("s%d", i)
			_, err = c.Subscribe(id, host, randSet())
			subs = append(subs, id)
		default:
			at := rng.Intn(len(subs))
			_, err = c.Unsubscribe(subs[at])
			subs = slices.Delete(subs, at, at+1)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	// Fail the first uplink of the first publisher's edge switch and
	// rebuild: the map is dropped, and the flows installed before and after
	// must still share.
	edge, err := c.g.AttachedSwitch(c.pubs["p0"].ep.node)
	if err != nil {
		t.Fatal(err)
	}
	for port := openflow.PortID(1); ; port++ {
		peer, ok := c.g.PortToPeer(edge, port)
		if !ok {
			t.Fatal("the edge switch has no switch neighbour")
		}
		if n, _ := c.g.Node(peer); n.Kind == topo.KindSwitch {
			if err := c.g.SetLinkState(edge, peer, true); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	rep, err := c.RebuildTrees()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlowOps() == 0 {
		t.Fatal("the rebuild moved no flow")
	}

	snap, err := c.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreController(c.g, dp, snap, WithHostAddr(netem.HostAddr))
	if err != nil {
		t.Fatal(err)
	}

	for _, ctl := range []*Controller{c, r} {
		if err := ctl.VerifyTables(); err != nil {
			t.Fatal(err)
		}
		for sw, flows := range ctl.installed {
			lists := make([]openflow.Flow, 0, len(flows))
			for _, fl := range flows {
				want := ctl.actionsFor(sw, openflow.Flow{Actions: fl.actions}.OutPorts())
				if !slices.Equal(fl.actions, want) || !sameArray(fl.actions, want) {
					t.Fatalf("switch %d: installed %v is not the interned %v", sw, fl.actions, want)
				}
				lists = append(lists, openflow.Flow{Actions: fl.actions})
			}
			checkShared(t, sw, lists)
		}
	}
	for _, sw := range c.g.Switches() {
		flows, err := dp.Flows(sw)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flows {
			if want := c.actionsFor(sw, f.OutPorts()); !slices.Equal(f.Actions, want) {
				t.Fatalf("switch %d flow %s: %v, actionsFor says %v", sw, f.Expr(), f.Actions, want)
			}
		}
		checkShared(t, sw, flows)
	}
}

// sameArray reports whether a and b share their first element.
func sameArray(a, b []openflow.Action) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// checkShared fails when the flows of one switch hold more distinct action
// arrays than distinct port sets.
func checkShared(t *testing.T, sw topo.NodeID, flows []openflow.Flow) {
	t.Helper()
	arrays := make(map[*openflow.Action]bool)
	sets := make(map[string]bool)
	for _, f := range flows {
		arrays[&f.Actions[0]] = true
		sets[fmt.Sprint(f.OutPorts())] = true
	}
	if len(arrays) > len(sets) {
		t.Fatalf("switch %d: %d flows hold %d action arrays for %d port sets", sw, len(flows), len(arrays), len(sets))
	}
}
