package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/openflow"
	"pleroma/internal/space"
	"pleroma/internal/topo"
)

// The control-plane golden pins everything the controller tells the
// switches and everything it would hand a standby, as one SHA-256, for a
// seeded script of control operations: every FlowMod in southbound order —
// its switch, kind, flow id, match expression, priority and actions — then
// the snapshot bytes and their digest. It was captured on the controller
// that kept its flow state keyed by expression strings. A change to how the
// controller keys, orders or stores that state must reproduce it bit for
// bit; there is no switch that rewrites it.
const controlPlaneGolden = "704cf87db2c0bf2f913184786b8b3117b7e7f6fb72411f637ff709ca17028bc4"

// opRecorder is the controller's programmer in the golden run: it folds
// every FlowMod the data plane acknowledges into h, then passes the batch
// result back.
type opRecorder struct {
	dp *netem.DataPlane
	h  hash.Hash
}

func (r *opRecorder) u64(v uint64) {
	r.h.Write(binary.BigEndian.AppendUint64(nil, v))
}

func (r *opRecorder) str(s string) {
	r.u64(uint64(len(s)))
	r.h.Write([]byte(s))
}

func (r *opRecorder) ApplyBatch(sw topo.NodeID, ops []openflow.FlowOp, buf []openflow.FlowID) ([]openflow.FlowID, error) {
	// A delete or modify names its flow by id: look its match up first.
	flows, err := r.dp.Flows(sw)
	if err != nil {
		return buf, err
	}
	match := make(map[openflow.FlowID]dz.Expr, len(flows))
	for _, f := range flows {
		match[f.ID] = f.Expr()
	}
	all, err := r.dp.ApplyBatch(sw, ops, buf)
	ids := all[len(buf):]
	for i, op := range ops[:len(ids)] {
		id, expr, prio, actions := op.ID, match[op.ID], op.Priority, op.Actions
		if op.Kind == openflow.OpAdd {
			id, expr, prio, actions = ids[i], op.Flow.Expr(), op.Flow.Priority, op.Flow.Actions
		}
		r.u64(uint64(sw))
		r.u64(uint64(op.Kind))
		r.u64(uint64(id))
		r.str(string(expr))
		r.u64(uint64(prio))
		r.u64(uint64(len(actions)))
		for _, a := range actions {
			r.u64(uint64(a.OutPort))
			r.str(a.SetDest.String())
		}
	}
	return all, err
}

// controlPlaneDigest runs the golden script and returns its digest.
func controlPlaneDigest(t *testing.T) string {
	c, hosts := newFatTreeController(t, WithMaxTrees(3))
	dp := c.prog.(*netem.DataPlane)
	rec := &opRecorder{dp: dp, h: sha256.New()}
	c.prog = rec // c.reader stays the data plane: resync reads it directly

	sch, err := space.UniformSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(46))
	randSet := func() dz.Set {
		side := 1 << (2 + rng.Intn(9)) // 4 … 1024 values a side
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
	var pubs, subs []string
	pick := func(ids *[]string) string {
		i := rng.Intn(len(*ids))
		id := (*ids)[i]
		*ids = slices.Delete(*ids, i, i+1)
		return id
	}
	ops := 0
	for next := 0; ops < 240; next++ {
		var err error
		host := hosts[rng.Intn(len(hosts))]
		switch k := rng.Intn(10); {
		case k < 4:
			id := fmt.Sprintf("s%d", next)
			_, err = c.Subscribe(id, host, randSet())
			subs = append(subs, id)
		case k < 6 && len(subs) > 0:
			_, err = c.Unsubscribe(pick(&subs))
		case k < 9 || len(pubs) < 2:
			id := fmt.Sprintf("p%d", next)
			_, err = c.Advertise(id, host, randSet())
			pubs = append(pubs, id)
		default:
			_, err = c.Unadvertise(pick(&pubs))
		}
		if err != nil {
			t.Fatalf("op %d: %v", ops, err)
		}
		ops++
	}
	if st := c.Stats(); st.TreesMerged == 0 || st.FlowDeletes == 0 || st.FlowModifies == 0 {
		t.Fatalf("script too tame: %+v", st)
	}

	// Fail the first switch-to-switch link of the first switch, so that
	// RebuildTrees moves routes, and remove one flow behind the
	// controller's back, so that ResyncAll repairs something.
	sws := c.g.Switches()
	for port := openflow.PortID(1); ; port++ {
		peer, ok := c.g.PortToPeer(sws[0], port)
		if !ok {
			t.Fatal("first switch has no switch neighbour")
		}
		if n, _ := c.g.Node(peer); n.Kind == topo.KindSwitch {
			if err := c.g.SetLinkState(sws[0], peer, true); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if _, err := c.RebuildTrees(); err != nil {
		t.Fatal(err)
	}
	for _, sw := range sws {
		if flows, _ := dp.Flows(sw); len(flows) > 0 {
			if _, err := dp.ApplyBatch(sw, []openflow.FlowOp{openflow.DeleteOp(flows[0].ID)}, nil); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	rr, err := c.ResyncAll()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Repaired() == 0 {
		t.Fatal("resync repaired nothing")
	}
	if err := c.VerifyTables(); err != nil {
		t.Fatal(err)
	}

	snap, err := c.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	d, err := SnapshotDigest(snap)
	if err != nil {
		t.Fatal(err)
	}
	rec.str(string(snap))
	rec.h.Write(d[:])
	t.Logf("%d ops, %d trees, %d flows, %d snapshot bytes", ops, len(c.trees), c.InstalledFlowCount(), len(snap))
	return hex.EncodeToString(rec.h.Sum(nil))
}

func TestControlPlaneGolden(t *testing.T) {
	if got := controlPlaneDigest(t); got != controlPlaneGolden {
		t.Fatalf("control-plane digest %s, golden %s", got, controlPlaneGolden)
	}
}
