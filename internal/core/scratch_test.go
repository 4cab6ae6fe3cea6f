package core

import (
	"errors"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/topo"
)

// cutProgrammer applies batches through inner until armed, then fails every
// batch with a permanent error after applying nothing.
type cutProgrammer struct {
	inner FlowProgrammer
	armed bool
}

var errCut = errors.New("switch refused the batch")

func (p *cutProgrammer) ApplyBatch(sw topo.NodeID, ops []openflow.FlowOp, ids []openflow.FlowID) ([]openflow.FlowID, error) {
	if p.armed {
		return ids, errCut
	}
	return p.inner.ApplyBatch(sw, ops, ids)
}

// checkOpScratch fails unless the controller's per-request change set is
// empty and tree membership agrees both ways: every t.subs entry names a
// subscriber listing t, and every tree a subscriber lists has its entry.
func checkOpScratch(t *testing.T, c *Controller) {
	t.Helper()
	if n := len(c.opCh.delta); n != 0 {
		t.Errorf("shared change set holds %d keys between operations", n)
	}
	for tid, tr := range c.trees {
		for sid, set := range tr.subs {
			if s := c.subs[sid]; s == nil || !s.trees.has(tid) {
				t.Errorf("tree %d lists subscriber %q, which does not list the tree", tid, sid)
			}
			if want := c.subs[sid].sub.Intersect(tr.set); !set.Equal(want) {
				t.Errorf("tree %d holds %v for %q, want %v", tid, set, sid, want)
			}
		}
	}
	for sid, s := range c.subs {
		for _, tid := range s.trees {
			if _, ok := c.trees[tid].subs[sid]; !ok {
				t.Errorf("subscriber %q lists tree %d, which does not list it", sid, tid)
			}
		}
	}
}

// TestSharedChangeSetSurvivesFailures fails a Subscribe after it added
// contributions to the controller's shared change set — once on a route
// that does not exist, once on a switch that refuses its batch — and checks
// that the set is empty afterwards, that tree membership is consistent, and
// that the next operations leave the flow tables canonical.
func TestSharedChangeSetSurvivesFailures(t *testing.T) {
	t.Run("unroutable", func(t *testing.T) {
		c, hosts := newFatTreeController(t)
		far := hosts[len(hosts)-1]
		if _, err := c.Advertise("p0", hosts[0], dz.NewSet("0")); err != nil {
			t.Fatal(err)
		}
		// Tree "1" is built while far's access link is down, so it does not
		// span far: a subscriber there has a route on tree "0" only.
		sw, err := c.g.AttachedSwitch(far)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.g.SetLinkState(far, sw, true); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Advertise("p1", hosts[1], dz.NewSet("1")); err != nil {
			t.Fatal(err)
		}
		if err := c.g.SetLinkState(far, sw, false); err != nil {
			t.Fatal(err)
		}
		// "00" establishes a path on tree "0" before "1" fails to route.
		if _, err := c.Subscribe("s", far, dz.NewSet("00", "1")); err == nil {
			t.Fatal("a subscription with no route on one of its trees must fail")
		}
		if len(c.contribs.branches) == 0 {
			t.Fatal("the failed subscription added no contribution before failing")
		}
		checkOpScratch(t, c)
		if _, err := c.Unsubscribe("s"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Subscribe("s2", hosts[2], dz.NewSet("00", "1")); err != nil {
			t.Fatal(err)
		}
		checkOpScratch(t, c)
		if err := c.VerifyTables(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("southbound", func(t *testing.T) {
		g, err := topo.FatTree(4, 4, 2, topo.DefaultLinkParams)
		if err != nil {
			t.Fatal(err)
		}
		prog := &cutProgrammer{inner: netem.New(g, sim.NewEngine())}
		c, err := NewController(g, prog, WithHostAddr(netem.HostAddr))
		if err != nil {
			t.Fatal(err)
		}
		hosts := g.Hosts()
		if _, err := c.Advertise("p", hosts[0], dz.NewSet("0")); err != nil {
			t.Fatal(err)
		}
		prog.armed = true
		_, err = c.Subscribe("s", hosts[len(hosts)-1], dz.NewSet("00", "011"))
		var serr *SouthboundError
		if !errors.As(err, &serr) || serr.Transient {
			t.Fatalf("Subscribe on a refusing switch returned %v, want a permanent *SouthboundError", err)
		}
		checkOpScratch(t, c)
		prog.armed = false
		if _, err := c.Unsubscribe("s"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Subscribe("s2", hosts[len(hosts)-2], dz.NewSet("00", "011")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Unsubscribe("s2"); err != nil {
			t.Fatal(err)
		}
		checkOpScratch(t, c)
		if err := c.VerifyTables(); err != nil {
			t.Fatal(err)
		}
	})
}
