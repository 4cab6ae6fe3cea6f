package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
)

// newFatTreeController builds a controller over FatTree(4,4,2) — the
// benchmark's deployment shape — on an emulated data plane.
func newFatTreeController(t *testing.T, opts ...Option) (*Controller, []topo.NodeID) {
	t.Helper()
	g, err := topo.FatTree(4, 4, 2, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{WithHostAddr(netem.HostAddr)}, opts...)
	c, err := NewController(g, netem.New(g, sim.NewEngine()), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, g.Hosts()
}

// overlappingTriples counts the (publisher, subscriber, tree) triples whose
// tree overlap sets intersect — the routes that must be established.
func overlappingTriples(c *Controller) int {
	n := 0
	for _, t := range c.trees {
		for _, ps := range t.pubs {
			for _, ss := range t.subs {
				if !ps.Intersect(ss).IsEmpty() {
					n++
				}
			}
		}
	}
	return n
}

// triple names one route: publisher → subscriber on tree.
type triple struct {
	pub, sub string
	tree     TreeID
}

// routesByTriple returns every route of c by its triple.
func routesByTriple(c *Controller) map[triple]*route {
	out := make(map[triple]*route)
	for key, b := range c.contribs.branches {
		for i := range b.len() {
			r := b.route(i)
			out[triple{r.pub.id, key.sub, key.tree}] = r
		}
	}
	return out
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestPathTableStateBudget pins what the controller keeps per deployed
// subscription in the ctl-churn regime: one branch per (subscriber, tree),
// one route in it per overlapping (publisher, subscriber, tree) triple, and
// a live heap that grows with subscriptions rather than with subspaces ×
// hops per index.
func TestPathTableStateBudget(t *testing.T) {
	const (
		pubs, subs = 4, 2000
		side       = 64
		budget     = 8_700 // bytes of live heap per subscription: measured ≈ 6 960 with one branch per (subscriber, tree) and no installed priority; ≈ 7 880 (≈ 8 860 on another box) with a path record per (publisher, subscriber, tree), budget 11 000 then; ≈ 11 100 with the state keyed by expression strings, 15 417 with per-switch tries, 20 280 with maps of maps
	)
	c, hosts := newFatTreeController(t)
	sch, err := space.UniformSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := sch.DecomposeLimited(space.NewFilter(), 24, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pubs; i++ {
		if _, err := c.Advertise(fmt.Sprintf("p%d", i), hosts[i], whole); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(15))
	domain := 1 << space.DefaultBits
	before := liveHeap()
	for i := 0; i < subs; i++ {
		a, b := uint32(rng.Intn(domain-side+1)), uint32(rng.Intn(domain-side+1))
		w, h := uint32(rng.Intn(side)), uint32(rng.Intn(side))
		set, err := sch.DecomposeRectLimited(dz.Rect{{Lo: a, Hi: a + w}, {Lo: b, Hi: b + h}}, 24, 16)
		if err != nil {
			t.Fatal(err)
		}
		host := hosts[pubs+rng.Intn(len(hosts)-pubs)]
		if _, err := c.Subscribe(fmt.Sprintf("s%d", i), host, set); err != nil {
			t.Fatal(err)
		}
	}
	perSub := (liveHeap() - before) / subs
	if err := c.VerifyTables(); err != nil {
		t.Fatal(err)
	}
	if got, want := routeCount(c), overlappingTriples(c); got != want || want < subs {
		t.Errorf("%d routes, want one per overlapping (publisher, subscriber, tree) triple = %d (≥ %d)", got, want, subs)
	}
	if got := len(c.contribs.branches); got != subs {
		t.Errorf("%d branches, want one per subscription on the one tree = %d", got, subs)
	}
	if perSub > budget {
		t.Errorf("live heap grew %d B per subscription, budget %d", perSub, budget)
	}
	t.Logf("%d branches, %d routes, %d B live heap per subscription", len(c.contribs.branches), routeCount(c), perSub)
	runtime.KeepAlive(c)
}

// TestChurnLeavesNoState drives seeded advertise/subscribe/unsubscribe/
// unadvertise churn through tree merges and one RebuildTrees, checks the
// canonical oracle after every operation, then removes every client:
// removal walks tree membership, so anything it misses stays behind here.
func TestChurnLeavesNoState(t *testing.T) {
	c, hosts := newFatTreeController(t, WithMaxTrees(3))
	rng := rand.New(rand.NewSource(15))
	randomSet := func(maxMembers, maxLen int) dz.Set {
		exprs := make([]dz.Expr, 1+rng.Intn(maxMembers))
		for i := range exprs {
			buf := make([]byte, rng.Intn(maxLen+1))
			for j := range buf {
				buf[j] = byte('0' + rng.Intn(2))
			}
			exprs[i] = dz.Expr(buf)
		}
		return dz.NewSet(exprs...)
	}
	var livePubs, liveSubs []string
	take := func(ids *[]string) string {
		i := rng.Intn(len(*ids))
		id := (*ids)[i]
		(*ids)[i] = (*ids)[len(*ids)-1]
		*ids = (*ids)[:len(*ids)-1]
		return id
	}
	merged := false
	for op := 0; op < 400; op++ {
		var rep ReconfigReport
		var err error
		what := rng.Intn(10)
		switch {
		case op == 200:
			what = -1
			rep, err = c.RebuildTrees()
		case what < 2:
			id := fmt.Sprintf("p%d", op)
			livePubs = append(livePubs, id)
			rep, err = c.Advertise(id, hosts[rng.Intn(len(hosts))], randomSet(3, 4))
		case what < 3 && len(livePubs) > 0:
			rep, err = c.Unadvertise(take(&livePubs))
		case what < 5 && len(liveSubs) > 0:
			rep, err = c.Unsubscribe(take(&liveSubs))
		default:
			id := fmt.Sprintf("s%d", op)
			liveSubs = append(liveSubs, id)
			rep, err = c.Subscribe(id, hosts[rng.Intn(len(hosts))], randomSet(3, 6))
		}
		if err != nil {
			t.Fatalf("op %d (kind %d): %v", op, what, err)
		}
		merged = merged || rep.TreesMerged > 0
		if err := c.VerifyTables(); err != nil {
			t.Fatalf("after op %d (kind %d): %v", op, what, err)
		}
		checkBranches(t, fmt.Sprintf("op %d (kind %d)", op, what), c)
	}
	if !merged || len(c.contribs.branches) == 0 {
		t.Fatalf("churn too tame: merged=%v, %d branches", merged, len(c.contribs.branches))
	}
	for _, id := range liveSubs {
		if _, err := c.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range livePubs {
		if _, err := c.Unadvertise(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.VerifyTables(); err != nil {
		t.Fatal(err)
	}
	if n := len(c.contribs.branches); n != 0 {
		t.Errorf("%d branches left", n)
	}
	for sw, trie := range c.contribs.direct {
		t.Errorf("switch %d keeps a contribution trie of %d entries", sw, trie.Len())
	}
	if n := len(c.installed); n != 0 {
		t.Errorf("installed flows left on %d switches", n)
	}
	if n := len(c.trees) + c.treeIdx.trie.Len(); n != 0 {
		t.Errorf("%d tree / tree-index entries left", n)
	}
}

// TestRouteCacheDroppedWithSpan: routes are cached per tree and hold for one
// spanning tree. RebuildTrees around a failed link drops them, so the paths
// it re-establishes, and a new subscriber on a host whose route was cached
// before, avoid the link. A controller restored after the failure from a
// snapshot of the warm one derives the same routes and flows as a fresh
// controller that ran the same operations on the failed topology.
func TestRouteCacheDroppedWithSpan(t *testing.T) {
	c, hosts := newFatTreeController(t)
	far := hosts[len(hosts)-1]
	subs := []struct {
		id   string
		host topo.NodeID
		set  dz.Set
	}{
		{"s1", far, dz.NewSet("0", "11")},
		{"s2", hosts[5], dz.NewSet("01")},
		{"s3", hosts[9], dz.NewSet("1")},
	}
	run := func(c *Controller) {
		if _, err := c.Advertise("p", hosts[0], dz.NewSet(dz.Whole)); err != nil {
			t.Fatal(err)
		}
		for _, s := range subs {
			if _, err := c.Subscribe(s.id, s.host, s.set); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(c)
	snap, err := c.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Fail the first switch-to-switch link on s1's cached route.
	var a, b topo.NodeID
	for key, r := range routesByTriple(c) {
		if key.sub != "s1" {
			continue
		}
		for _, h := range r.hops {
			peer, _ := c.g.PortToPeer(h.Switch, h.OutPort)
			if n, _ := c.g.Node(peer); n.Kind == topo.KindSwitch {
				a, b = h.Switch, peer
				break
			}
		}
	}
	if a == b {
		t.Fatal("s1's route crosses no switch-to-switch link")
	}
	if err := c.g.SetLinkState(a, b, true); err != nil {
		t.Fatal(err)
	}
	crossing := func(c *Controller) string {
		for key, r := range routesByTriple(c) {
			for _, h := range r.hops {
				if peer, _ := c.g.PortToPeer(h.Switch, h.OutPort); h.Switch == a && peer == b || h.Switch == b && peer == a {
					return key.sub
				}
			}
		}
		return ""
	}

	if _, err := c.RebuildTrees(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("s1-again", far, dz.NewSet("00")); err != nil {
		t.Fatal(err)
	}
	if sub := crossing(c); sub != "" {
		t.Errorf("after RebuildTrees around the failed link %d–%d, %s's route still crosses it", a, b, sub)
	}
	if err := c.VerifyTables(); err != nil {
		t.Fatal(err)
	}

	restored, err := RestoreController(c.g, c.prog, snap, WithHostAddr(netem.HostAddr))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := newFatTreeController(t)
	if err := fresh.g.SetLinkState(a, b, true); err != nil {
		t.Fatal(err)
	}
	run(fresh)
	if sub := crossing(restored); sub != "" {
		t.Errorf("restored after the link failed, %s's route crosses it", sub)
	}
	restoredRoutes, freshRoutes := routesByTriple(restored), routesByTriple(fresh)
	if len(restoredRoutes) != len(freshRoutes) {
		t.Fatalf("restored has %d routes, fresh %d", len(restoredRoutes), len(freshRoutes))
	}
	for key, r := range restoredRoutes {
		if q, ok := freshRoutes[key]; !ok || !slices.Equal(r.hops, q.hops) {
			t.Errorf("route %v: restored hops %v, fresh %v", key, r.hops, q)
		}
	}
	for _, sw := range c.g.Switches() {
		want, got := fresh.desiredTable(sw), restored.desiredTable(sw)
		if !maps.EqualFunc(got, want, slices.Equal[[]openflow.PortID]) {
			t.Errorf("switch %d: restored derives %v, fresh %v", sw, got, want)
		}
	}
}

// TestRestoreRejectsNonMemberClient: a snapshot whose tree lists a client
// that does not list the tree back would establish a path no removal walk
// can reach.
func TestRestoreRejectsNonMemberClient(t *testing.T) {
	c, hosts := newFatTreeController(t)
	if _, err := c.Advertise("p", hosts[0], dz.NewSet("0")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("s", hosts[1], dz.NewSet("01")); err != nil {
		t.Fatal(err)
	}
	c.subs["s"].trees = nil
	snap, err := c.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreController(c.g, c.prog, snap, WithHostAddr(netem.HostAddr)); err == nil {
		t.Error("restore accepted a tree whose subscriber does not list it")
	}
}

// TestRestoreRejectsWrongPriority: a snapshot writes each flow's priority,
// which is its key's length (the controller keeps no priority of its own),
// and a restore refuses a flow whose priority says otherwise.
func TestRestoreRejectsWrongPriority(t *testing.T) {
	c, hosts := newFatTreeController(t)
	if _, err := c.Advertise("p", hosts[0], dz.NewSet("0")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("s", hosts[1], dz.NewSet("01")); err != nil {
		t.Fatal(err)
	}
	snap, err := c.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The installed section starts where the snapshot of the same state
	// without flows writes its zero switch count.
	installed := c.installed
	c.installed = nil
	bare, err := c.EncodeSnapshot()
	c.installed = installed
	if err != nil {
		t.Fatal(err)
	}
	body := snap[:len(snap)-sha256.Size]
	off := len(bare) - sha256.Size - 1
	for range 3 { // switch count, first switch, its flow count
		_, n := binary.Uvarint(body[off:])
		off += n
	}
	keyLen := int(body[off])
	off += 1 + (keyLen+7)/8
	_, n := binary.Uvarint(body[off:]) // flow id
	off += n
	if int(body[off]) != keyLen {
		t.Fatalf("first flow's priority byte reads %d, want its key's length %d", body[off], keyLen)
	}
	body[off]++
	sum := sha256.Sum256(body)
	copy(snap[len(body):], sum[:])
	if _, err := RestoreController(c.g, c.prog, snap, WithHostAddr(netem.HostAddr)); err == nil || !strings.Contains(err.Error(), "priority") {
		t.Errorf("restore of a flow whose priority is not its length returned %v", err)
	}
}

// TestControllerKeysAreLossless: admission refuses any member longer than
// dz.MaxKeyBits, so every key the controller holds — contribution, change,
// installed flow — is its expression packed without loss. Two subscriptions
// whose members differ only in the last bit a key holds keep distinct
// contributions and flows, and every flow's match prints back as the member
// it came from.
func TestControllerKeysAreLossless(t *testing.T) {
	c, hosts := newFatTreeController(t)
	stem := strings.Repeat("01", dz.MaxKeyBits/2-1) + "0"
	a, b := dz.Expr(stem+"0"), dz.Expr(stem+"1")
	if _, err := c.Advertise("p", hosts[0], dz.NewSet(dz.Whole)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("a", hosts[1], dz.NewSet(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("b", hosts[len(hosts)-1], dz.NewSet(b)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("long", hosts[2], dz.NewSet(a+"1")); err == nil {
		t.Fatalf("a %d-bit member was admitted", a.Len()+1)
	}
	seen := map[dz.Expr]bool{}
	for sw, flows := range c.installed {
		for k := range flows {
			if back, _ := dz.KeyOf(k.Expr()); back != k {
				t.Errorf("switch %d: key %s does not pack back into itself", sw, k.Expr())
			}
			seen[k.Expr()] = true
		}
		c.contribs.direct[sw].VisitOverlaps(dz.Key{}, func(k dz.Key, _ contrib) bool {
			if e := k.Expr(); e != a && e != b {
				t.Errorf("switch %d: contribution under %s, want one of the two members", sw, e)
			}
			return true
		})
		onSwitch, err := c.reader.Flows(sw)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range onSwitch {
			if f.Expr() != a && f.Expr() != b {
				t.Errorf("switch %d matches %s, want one of the two members", sw, f.Expr())
			}
		}
	}
	if len(seen) != 2 || !seen[a] || !seen[b] {
		t.Errorf("installed matches %v, want the two members", seen)
	}
	if err := c.VerifyTables(); err != nil {
		t.Fatal(err)
	}
}
