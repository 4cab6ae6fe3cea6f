package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/sortutil"
	"pleroma/internal/topo"
)

// The definition of the canonical flow table, kept as the map-based code
// control operations ran before the per-switch contribution trie: a direct
// expression's entry unions the direct ports of all its prefixes and is
// dropped when it equals the entry of the nearest coarser direct expression.
// Nothing below shares code with derivation.family.

type portSet map[openflow.PortID]bool

func (p portSet) equal(o portSet) bool {
	if len(p) != len(o) {
		return false
	}
	for port := range p {
		if !o[port] {
			return false
		}
	}
	return true
}

type directMap map[dz.Expr]map[openflow.PortID]int

// oracleDirect recomputes every switch's direct contributions from the
// branches, one route at a time: the expressions a route carries × its hops.
func oracleDirect(c *Controller) map[topo.NodeID]directMap {
	out := make(map[topo.NodeID]directMap)
	for _, b := range c.contribs.branches {
		for i := range b.len() {
			r := b.route(i)
			for x, e := range b.exprs {
				if !r.part.has(x) {
					continue
				}
				for _, hop := range r.hops {
					d := out[hop.Switch]
					if d == nil {
						d = make(directMap)
						out[hop.Switch] = d
					}
					if d[e] == nil {
						d[e] = make(map[openflow.PortID]int)
					}
					d[e][hop.OutPort]++
				}
			}
		}
	}
	return out
}

// routeCount is the number of routes of all branches.
func routeCount(c *Controller) int {
	n := 0
	for _, b := range c.contribs.branches {
		n += b.len()
	}
	return n
}

// checkBranches holds every branch to the trees' overlap sets: a branch
// names a member of a live tree and has a route; its expressions are
// distinct; each route comes from a registered publisher of the tree, one
// per publisher, and carries exactly DZ^t(p) ∩ DZ^t(s) (as point sets: the
// pieces it was given may be finer); and every (publisher, subscriber, tree)
// triple whose sets intersect has its route.
func checkBranches(tb testing.TB, op string, c *Controller) {
	tb.Helper()
	for key, b := range c.contribs.branches {
		t := c.trees[key.tree]
		if t == nil || t.subs[key.sub] == nil || b.len() == 0 {
			tb.Fatalf("%s: branch %v: tree, membership or route missing", op, key)
		}
		sorted := slices.Clone(b.exprs)
		if slices.Sort(sorted); len(slices.Compact(sorted)) != len(b.exprs) {
			tb.Fatalf("%s: branch %v repeats an expression: %v", op, key, b.exprs)
		}
		seen := map[string]bool{}
		for i := range b.len() {
			r := b.route(i)
			id := r.pub.id
			if _, member := t.pubs[id]; seen[id] || c.pubs[id] != r.pub || !member {
				tb.Fatalf("%s: branch %v: route of %q repeated, unregistered or off the tree", op, key, id)
			}
			seen[id] = true
			var carried []dz.Expr
			for x, e := range b.exprs {
				if r.part.has(x) {
					carried = append(carried, e)
				}
			}
			if got, want := dz.NewSet(carried...), t.pubs[id].Intersect(t.subs[key.sub]); !got.Equal(want) {
				tb.Fatalf("%s: branch %v: route of %q carries %v, DZ^t(p) ∩ DZ^t(s) = %v", op, key, id, got, want)
			}
		}
	}
	if got, want := routeCount(c), overlappingTriples(c); got != want {
		tb.Fatalf("%s: %d routes, %d overlapping (publisher, subscriber, tree) triples", op, got, want)
	}
}

func unionOfPrefixes(direct directMap, x dz.Expr, memo map[dz.Expr]portSet) portSet {
	if u, ok := memo[x]; ok {
		return u
	}
	u := make(portSet)
	for l := 0; l <= x.Len(); l++ {
		for p := range direct[x[:l]] {
			u[p] = true
		}
	}
	memo[x] = u
	return u
}

func desiredEntry(direct directMap, x dz.Expr, memo map[dz.Expr]portSet) portSet {
	if _, present := direct[x]; !present {
		return nil
	}
	want := unionOfPrefixes(direct, x, memo)
	for l := x.Len() - 1; l >= 0; l-- {
		if _, ok := direct[x[:l]]; !ok {
			continue
		}
		if unionOfPrefixes(direct, x[:l], memo).equal(want) {
			return nil // redundant: the coarser entry forwards identically
		}
		break
	}
	return want
}

// oracleTables derives every switch's canonical table from the definition.
func oracleTables(direct map[topo.NodeID]directMap) map[topo.NodeID]map[dz.Expr]portSet {
	out := make(map[topo.NodeID]map[dz.Expr]portSet)
	for sw, d := range direct {
		memo := make(map[dz.Expr]portSet)
		for e := range d {
			if want := desiredEntry(d, e, memo); want != nil {
				if out[sw] == nil {
					out[sw] = make(map[dz.Expr]portSet)
				}
				out[sw][e] = want
			}
		}
	}
	return out
}

// batchLog wraps the emulated data plane and records, per southbound batch,
// the match expression of every FlowMod in shipping order.
type batchLog struct {
	*netem.DataPlane
	mu      sync.Mutex
	batches [][]dz.Expr
}

func (b *batchLog) ApplyBatch(sw topo.NodeID, ops []openflow.FlowOp, ids []openflow.FlowID) ([]openflow.FlowID, error) {
	flows, err := b.DataPlane.Flows(sw)
	if err != nil {
		return ids, err
	}
	byID := make(map[openflow.FlowID]dz.Expr, len(flows))
	for _, f := range flows {
		byID[f.ID] = f.Expr()
	}
	exprs := make([]dz.Expr, len(ops))
	for i, op := range ops {
		if op.Kind == openflow.OpAdd {
			exprs[i] = op.Flow.Expr()
		} else {
			exprs[i] = byID[op.ID]
		}
	}
	b.mu.Lock()
	b.batches = append(b.batches, exprs)
	b.mu.Unlock()
	return b.DataPlane.ApplyBatch(sw, ops, ids)
}

// derivationRig runs a control program against a controller and checks the
// flow derivation against the definition after every operation.
type derivationRig struct {
	g     *topo.Graph
	log   *batchLog
	opts  []Option
	c     *Controller
	hosts []topo.NodeID
	pubs  []string
	subs  []string
	next  int
}

func newDerivationRig(tb testing.TB, ring bool, maxTrees int) *derivationRig {
	tb.Helper()
	var g *topo.Graph
	var err error
	if ring {
		g, err = topo.Ring(6, topo.DefaultLinkParams)
	} else {
		g, err = topo.TestbedFatTree(topo.DefaultLinkParams)
	}
	if err != nil {
		tb.Fatal(err)
	}
	r := &derivationRig{
		g:     g,
		log:   &batchLog{DataPlane: netem.New(g, sim.NewEngine())},
		opts:  []Option{WithHostAddr(netem.HostAddr), WithMaxTrees(maxTrees)},
		hosts: g.Hosts(),
	}
	if r.c, err = NewController(g, r.log, r.opts...); err != nil {
		tb.Fatal(err)
	}
	return r
}

// exprFrom spreads 16 bits into a dz-expression of 0–6 bits.
func exprFrom(u uint16) dz.Expr {
	u = u*40503 + 12345
	n := int(u>>13) % 7
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = '0' + byte(u>>uint(i))&1
	}
	return dz.Expr(buf)
}

func setFrom(a, b byte) dz.Set {
	u := uint16(a)<<8 | uint16(b)
	exprs := make([]dz.Expr, 1+int(b)%3)
	for i := range exprs {
		exprs[i] = exprFrom(u + uint16(i)*7919)
	}
	return dz.NewSet(exprs...)
}

func take(ids *[]string, i byte) string {
	n := int(i) % len(*ids)
	id := (*ids)[n]
	*ids = slices.Delete(*ids, n, n+1)
	return id
}

// step runs one operation of a byte program — kind selects it, a and b its
// host and DZ set or victim — and checks the derivation.
func (r *derivationRig) step(tb testing.TB, kind, a, b byte) {
	tb.Helper()
	var (
		op  string
		run func() (ReconfigReport, error)
	)
	host := r.hosts[int(a)%len(r.hosts)]
	switch k := kind % 10; {
	case k < 4:
		id := fmt.Sprintf("s%d", r.next)
		r.next++
		op = fmt.Sprintf("subscribe %s host %d %v", id, host, setFrom(a, b))
		run = func() (ReconfigReport, error) { return r.c.Subscribe(id, host, setFrom(a, b)) }
		r.subs = append(r.subs, id)
	case k < 6 && len(r.subs) > 0:
		id := take(&r.subs, a)
		op = "unsubscribe " + id
		run = func() (ReconfigReport, error) { return r.c.Unsubscribe(id) }
	case k < 8:
		id := fmt.Sprintf("p%d", r.next)
		r.next++
		op = fmt.Sprintf("advertise %s host %d %v", id, host, setFrom(a, b))
		run = func() (ReconfigReport, error) { return r.c.Advertise(id, host, setFrom(a, b)) }
		r.pubs = append(r.pubs, id)
	case k == 8 && len(r.pubs) > 0:
		id := take(&r.pubs, a)
		op = "unadvertise " + id
		run = func() (ReconfigReport, error) { return r.c.Unadvertise(id) }
	case a%4 == 0:
		r.restore(tb)
		return
	default:
		op = "rebuild trees"
		run = r.c.RebuildTrees
	}
	r.check(tb, op, run)
}

// check runs one operation, op, and checks the derivation around it.
func (r *derivationRig) check(tb testing.TB, op string, run func() (ReconfigReport, error)) {
	tb.Helper()
	before := oracleTables(oracleDirect(r.c))
	casesBefore := r.caseCounts()
	r.log.batches = nil
	rep, err := run()
	if err != nil {
		tb.Fatalf("%s: %v", op, err)
	}
	direct := oracleDirect(r.c)
	after := oracleTables(direct)
	r.checkTables(tb, op, after)
	checkBranches(tb, op, r.c)

	for _, batch := range r.log.batches {
		if !slices.IsSorted(batch) || len(slices.Compact(slices.Clone(batch))) != len(batch) {
			tb.Fatalf("%s: FlowMod batch not in lexicographic expression order: %q", op, batch)
		}
	}

	// The operation's FlowMods and incremental-case outcomes are the diff of
	// the canonical tables around it.
	var want ReconfigReport
	wantCases := make(map[string]uint64)
	for _, sw := range unionKeys(before, after) {
		for _, e := range unionKeys(before[sw], after[sw]) {
			was, is := before[sw][e], after[sw][e]
			switch {
			case was == nil:
				want.FlowAdds++
				wantCases[caseInstall]++
			case is == nil && direct[sw][e] != nil:
				want.FlowDeletes++
				wantCases[caseCovered]++
			case is == nil:
				want.FlowDeletes++
				wantCases[caseDelete]++
			case !was.equal(is):
				want.FlowModifies++
				switch {
				case len(is) > len(was):
					wantCases[caseExtend]++
				case len(is) < len(was):
					wantCases[caseDowngrade]++
				default:
					wantCases[caseModify]++
				}
			}
		}
	}
	if rep.FlowAdds != want.FlowAdds || rep.FlowDeletes != want.FlowDeletes || rep.FlowModifies != want.FlowModifies {
		tb.Fatalf("%s: reported %d adds, %d deletes, %d modifies; the canonical tables differ by %d, %d, %d",
			op, rep.FlowAdds, rep.FlowDeletes, rep.FlowModifies, want.FlowAdds, want.FlowDeletes, want.FlowModifies)
	}
	for name, n := range r.caseCounts() {
		if got := n - casesBefore[name]; got != wantCases[name] {
			tb.Fatalf("%s: case %q counted %d times, the canonical tables say %d", op, name, got, wantCases[name])
		}
	}
}

func unionKeys[K int | topo.NodeID | dz.Expr, V any](a, b map[K]V) []K {
	keys := append(sortutil.Keys(a), sortutil.Keys(b)...)
	slices.Sort(keys)
	return slices.Compact(keys)
}

func (r *derivationRig) caseCounts() map[string]uint64 {
	i := r.c.inst
	return map[string]uint64{
		caseInstall: i.caseInstall.Value(), caseCovered: i.caseCovered.Value(),
		caseExtend: i.caseExtend.Value(), caseDowngrade: i.caseDowngrade.Value(),
		caseDelete: i.caseDelete.Value(), caseModify: i.caseModify.Value(),
	}
}

// checkTables compares what every switch holds, and what the controller
// believes it holds, with the definition's tables.
func (r *derivationRig) checkTables(tb testing.TB, op string, want map[topo.NodeID]map[dz.Expr]portSet) {
	tb.Helper()
	for _, sw := range r.g.Switches() {
		flows, err := r.log.Flows(sw)
		if err != nil {
			tb.Fatal(err)
		}
		if len(flows) != len(want[sw]) || len(r.c.installed[sw]) != len(want[sw]) {
			tb.Fatalf("%s: switch %d holds %d flows, controller recorded %d, definition says %d",
				op, sw, len(flows), len(r.c.installed[sw]), len(want[sw]))
		}
		for _, f := range flows {
			ports := want[sw][f.Expr()]
			if ports == nil {
				tb.Fatalf("%s: switch %d holds %q, which the definition prunes or lacks", op, sw, f.Expr())
			}
			actions := r.c.actionsFor(sw, sortutil.Keys(ports))
			if f.Priority != f.Key.Len() || !actionsEqual(f.Actions, actions) {
				tb.Fatalf("%s: switch %d flow %q forwards %v at priority %d, definition says %v", op, sw, f.Expr(), f.Actions, f.Priority, actions)
			}
		}
	}
	if err := r.c.VerifyTables(); err != nil {
		tb.Fatalf("%s: %v", op, err)
	}
}

// restore replaces the controller by one restored from its snapshot and
// resynced, as a failover does. Restore re-derives contributions from the
// canonical registries, which may be coarser than what accumulated, so the
// FlowMod accounting does not apply; the tables must match all the same.
func (r *derivationRig) restore(tb testing.TB) {
	tb.Helper()
	snap, err := r.c.EncodeSnapshot()
	if err != nil {
		tb.Fatal(err)
	}
	if r.c, err = RestoreController(r.g, r.log, snap, r.opts...); err != nil {
		tb.Fatal(err)
	}
	if _, err := r.c.ResyncAll(); err != nil {
		tb.Fatal(err)
	}
	r.checkTables(tb, "snapshot-restore", oracleTables(oracleDirect(r.c)))
	checkBranches(tb, "snapshot-restore", r.c)
}

// run interprets prog three bytes at a time, then removes every client and
// checks that nothing stays behind.
func (r *derivationRig) run(tb testing.TB, prog []byte) {
	tb.Helper()
	for ; len(prog) >= 3; prog = prog[3:] {
		r.step(tb, prog[0], prog[1], prog[2])
	}
	for len(r.subs) > 0 {
		r.step(tb, 4, 0, 0)
	}
	for len(r.pubs) > 0 {
		r.step(tb, 8, 0, 0)
	}
	if n := len(r.c.contribs.branches) + len(r.c.contribs.direct) + len(r.c.installed); n != 0 {
		tb.Fatalf("%d branches, contribution tries and installed tables left", n)
	}
}

// TestFlowDerivationMatchesDefinition drives seeded programs of subscribe,
// unsubscribe, advertise, unadvertise, tree merges, RebuildTrees and
// snapshot-restore on the testbed fat-tree and on a ring.
func TestFlowDerivationMatchesDefinition(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 3*120)
		rng.Read(prog)
		maxTrees := 0
		if seed%3 != 0 {
			maxTrees = 2 + int(seed%3)
		}
		newDerivationRig(t, seed%2 == 1, maxTrees).run(t, prog)
	}
}

// FuzzFlowDerivation runs byte programs through the same checks: the first
// byte picks topology and merge threshold, the rest is the program.
func FuzzFlowDerivation(f *testing.F) {
	f.Add([]byte{0, 6, 0, 9, 0, 1, 9, 0, 2, 40, 0, 3, 0, 4, 0, 5, 4, 0, 0})
	f.Add([]byte{1, 7, 1, 200, 7, 2, 100, 0, 3, 50, 1, 3, 51, 9, 1, 0, 9, 0, 0, 4, 1, 0})
	f.Add([]byte{6, 6, 0, 1, 6, 1, 2, 6, 2, 3, 6, 3, 4, 0, 4, 5, 0, 5, 6, 8, 0, 0, 0, 6, 7})
	f.Add([]byte{3, 7, 0, 0, 0, 1, 0, 1, 1, 16, 2, 1, 33, 3, 1, 77, 5, 0, 0, 5, 1, 0, 9, 4, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 3*80 {
			return
		}
		mode := prog[0]
		newDerivationRig(t, mode&1 == 1, int(mode>>1)%4).run(t, prog[1:])
	})
}

// TestBranchesUnderPartialAdvertisements: publishers that advertise
// different parts of one tree give one subscriber's routes different parts
// of its branch, and two subscribers' routes may share a part with some
// publishers and not others. Every operation is checked against the
// definition and the overlap sets (check, checkBranches); withdrawing one
// publisher of a shared branch, a merge and RebuildTrees follow.
func TestBranchesUnderPartialAdvertisements(t *testing.T) {
	r := newDerivationRig(t, false, 2)
	h := r.hosts
	advertise := func(id string, host topo.NodeID, exprs ...dz.Expr) ReconfigReport {
		var rep ReconfigReport
		r.check(t, "advertise "+id, func() (ReconfigReport, error) {
			var err error
			rep, err = r.c.Advertise(id, host, dz.NewSet(exprs...))
			return rep, err
		})
		r.pubs = append(r.pubs, id)
		return rep
	}
	subscribe := func(id string, host topo.NodeID, exprs ...dz.Expr) {
		r.check(t, "subscribe "+id, func() (ReconfigReport, error) { return r.c.Subscribe(id, host, dz.NewSet(exprs...)) })
		r.subs = append(r.subs, id)
	}
	// parts returns, per publisher, what its route on the branch of sub on
	// the tree owning e carries.
	parts := func(sub string, e dz.Expr) map[string][]dz.Expr {
		k, _ := dz.KeyOf(e)
		tid, ok := r.c.TreeFor(k)
		if !ok {
			t.Fatalf("no tree owns %s", e)
		}
		b := r.c.contribs.branches[branchKey{sub: sub, tree: tid}]
		out := map[string][]dz.Expr{}
		for i := range b.len() {
			rt := b.route(i)
			for x, e := range b.exprs {
				if rt.part.has(x) {
					out[rt.pub.id] = append(out[rt.pub.id], e)
				}
			}
		}
		return out
	}
	same := func(what string, got, want map[string][]dz.Expr) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: routes carry %v, want %v", what, got, want)
		}
	}

	advertise("p0", h[0], "0")
	advertise("p1", h[1], "00")
	advertise("p2", h[2], "01", "10") // joins {0} with 01, makes a tree {10}
	subscribe("s", h[len(h)-1], "0", "1")
	same("s on {0}", parts("s", "0"), map[string][]dz.Expr{"p0": {"0"}, "p1": {"00"}, "p2": {"01"}})
	same("s on {10}", parts("s", "10"), map[string][]dz.Expr{"p2": {"10"}})
	subscribe("s2", h[len(h)-2], "000")
	same("s2 on {0}", parts("s2", "0"), map[string][]dz.Expr{"p0": {"000"}, "p1": {"000"}})

	r.check(t, "unadvertise p1", func() (ReconfigReport, error) { return r.c.Unadvertise("p1") })
	r.pubs = slices.DeleteFunc(r.pubs, func(id string) bool { return id == "p1" })
	same("s on {0} without p1", parts("s", "0"), map[string][]dz.Expr{"p0": {"0"}, "p2": {"01"}})
	same("s2 on {0} without p1", parts("s2", "0"), map[string][]dz.Expr{"p0": {"000"}})

	if rep := advertise("p3", h[3], "11"); rep.TreesMerged != 1 {
		t.Fatalf("a third tree merged %d times, want once", rep.TreesMerged)
	}
	same("s on {1}", parts("s", "1"), map[string][]dz.Expr{"p2": {"10"}, "p3": {"11"}})
	r.check(t, "rebuild trees", r.c.RebuildTrees)
	r.run(t, nil)
}

// TestBranchOfManyExpressions: a branch of more than 64 expressions keeps
// the bits past the first word (exprBits.rest), and a publisher that
// covers half the space carries the half of them it overlaps.
func TestBranchOfManyExpressions(t *testing.T) {
	r := newDerivationRig(t, false, 0)
	var exprs []dz.Expr
	for i := range 100 {
		exprs = append(exprs, dz.Expr(fmt.Sprintf("%07b0", i))) // no two are siblings
	}
	set := dz.NewSet(exprs...)
	if len(set) != 100 {
		t.Fatalf("%d members, want 100", len(set))
	}
	h := r.hosts
	r.check(t, "advertise p0", func() (ReconfigReport, error) { return r.c.Advertise("p0", h[0], dz.NewSet(dz.Whole)) })
	r.check(t, "advertise p1", func() (ReconfigReport, error) { return r.c.Advertise("p1", h[1], dz.NewSet("1")) })
	r.pubs = append(r.pubs, "p0", "p1")
	r.check(t, "subscribe s", func() (ReconfigReport, error) { return r.c.Subscribe("s", h[len(h)-1], set) })
	r.subs = append(r.subs, "s")
	for _, b := range r.c.contribs.branches {
		for i := range b.len() {
			if rt := b.route(i); rt.pub.id == "p0" && len(rt.part.rest) != 1 {
				t.Errorf("p0's route carries %d words past the first, want 1", len(rt.part.rest))
			}
		}
	}
	r.check(t, "unadvertise p0", func() (ReconfigReport, error) { return r.c.Unadvertise("p0") })
	r.pubs = r.pubs[1:]
	r.run(t, nil)
}

func TestExprBits(t *testing.T) {
	var a, b exprBits
	for _, i := range []int{0, 63, 64, 130} {
		a.set(i)
	}
	for i := range 200 {
		if want := i == 0 || i == 63 || i == 64 || i == 130; a.has(i) != want {
			t.Errorf("has(%d) = %v, want %v", i, !want, want)
		}
	}
	if a.equal(&b) || b.equal(&a) || !b.empty() || a.empty() {
		t.Error("an empty set equals a full one, or emptiness is wrong")
	}
	for _, i := range []int{130, 64, 63, 0} {
		b.set(i)
	}
	if !a.equal(&b) || len(b.rest) != 2 {
		t.Errorf("sets built in two orders differ: %v, %v", a, b)
	}
}
