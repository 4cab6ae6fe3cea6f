package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"pleroma/internal/dz"
	"pleroma/internal/openflow"
	"pleroma/internal/sortutil"
	"pleroma/internal/topo"
)

// contribKey names one direct contribution: the subspace key forwarded out
// of port on sw. Expressions are admitted only up to dz.MaxKeyBits
// (Controller.admit), so every one packs into its key losslessly.
type contribKey struct {
	sw   topo.NodeID
	key  dz.Key
	port openflow.PortID
}

// changeSet accumulates, over one control operation, the net change in the
// number of (route, key) contributions per contribKey. The routes of one
// operation share most of their hops (every publisher's route to a
// subscriber ends in the same switches), so a branch's routes enter the set
// grouped (contribState.contribute), and the per-switch tries are touched
// once per distinct key — and not at all where a tear-down and a
// re-establishment cancel (mergeTrees, RebuildTrees) — when apply folds the
// set in.
type changeSet struct {
	delta map[contribKey]int
	// changed backs the list apply returns, reused by the next apply of
	// this set: it lives as long as the set does.
	changed []change
}

func newChangeSet() *changeSet {
	return &changeSet{delta: make(map[contribKey]int)}
}

// branchKey names one branch: the established paths of a subscriber on a
// tree.
type branchKey struct {
	sub  string
	tree TreeID
}

// branch is the established paths of one subscriber on one tree: one route
// per publisher that forwards it anything. Its contributions are, per
// route, the expressions the route carries × its hops.
type branch struct {
	// exprs lists the subspaces the routes were given, as they were added,
	// de-duplicated and never canonicalised: flows are derived per
	// contributed subspace, so merging siblings here would change the
	// FlowMods. The members are the registered sets' strings. An expression
	// stays when the only route carrying it goes (Unadvertise): nothing
	// contributes it, and a later route that carries it finds it here.
	exprs []dz.Expr
	// first is the first route and more the others, so that a branch of one
	// route costs its expression list alone.
	first route
	more  []route
}

// route is one publisher's path to the branch's subscriber: the tree's
// cached route and which of the branch's expressions it carries, the parts
// of DZ^t(p) ∩ DZ^t(s) it was given. The parts of a branch's routes differ
// only under partial advertisements.
type route struct {
	pub  *publisher // nil only in an empty branch's first
	hops []topo.Hop // the tree's cached route (tree.routes), shared: read-only
	part exprBits
}

// exprBits is a set of indexes into a branch's expression list: index i is
// bit i%64 of word i/64, the first word inline and the others, for a
// branch of more than 64 expressions, in rest. Bits are only ever set, so
// rest is exactly as long as its highest set bit needs and equal sets have
// equal words.
type exprBits struct {
	w0   uint64
	rest []uint64
}

func (s *exprBits) has(i int) bool {
	if i < 64 {
		return s.w0>>i&1 != 0
	}
	j := i/64 - 1
	return j < len(s.rest) && s.rest[j]>>(i%64)&1 != 0
}

func (s *exprBits) set(i int) {
	if i < 64 {
		s.w0 |= 1 << i
		return
	}
	j := i/64 - 1
	for len(s.rest) <= j {
		s.rest = append(s.rest, 0)
	}
	s.rest[j] |= 1 << (i % 64)
}

func (s *exprBits) empty() bool { return s.w0 == 0 && len(s.rest) == 0 }

func (s *exprBits) equal(o *exprBits) bool {
	return s.w0 == o.w0 && slices.Equal(s.rest, o.rest)
}

// len returns the number of b's routes.
func (b *branch) len() int {
	if b.first.pub == nil {
		return 0
	}
	return 1 + len(b.more)
}

// route returns b's route i, aliasing b.
func (b *branch) route(i int) *route {
	if i == 0 {
		return &b.first
	}
	return &b.more[i-1]
}

// routeOf returns the index of pub's route on b, or -1.
func (b *branch) routeOf(pub *publisher) int {
	for i := range b.len() {
		if b.route(i).pub == pub {
			return i
		}
	}
	return -1
}

// push appends r and returns its index. The first spill is sized for every
// other publisher of the tree, pubs in all.
func (b *branch) push(r route, pubs int) int {
	if b.first.pub == nil {
		b.first = r
		return 0
	}
	if b.more == nil {
		b.more = make([]route, 0, max(1, pubs-1))
	}
	b.more = append(b.more, r)
	return len(b.more)
}

// drop removes route i, moving the last route into its place.
func (b *branch) drop(i int) {
	last := b.len() - 1
	*b.route(i) = *b.route(last)
	if last == 0 {
		b.first = route{}
		return
	}
	b.more[last-1] = route{}
	b.more = b.more[:last-1]
}

// index returns the position of e in b.exprs, appending it if absent.
func (b *branch) index(e dz.Expr) int {
	if i := slices.Index(b.exprs, e); i >= 0 {
		return i
	}
	b.exprs = append(b.exprs, e)
	return len(b.exprs) - 1
}

// portRef counts the live (route, key) contributions through one out-port.
type portRef struct {
	port, n int32 // an openflow.PortID, and a count bounded by the routes
}

// contrib is one switch's direct contribution under one key: the out-ports
// with live contributions, sorted by port. The switch's trie holds it by
// value (24 bytes) and moves it, so it points into nothing of its own: most
// keys leave a switch by one or two ports, kept inline; a third spills all.
type contrib struct {
	inline [2]portRef // the ports while spill is nil; a free slot has n == 0
	spill  *[]portRef
}

// ports returns c's port list, aliasing c.
func (c *contrib) ports() []portRef {
	switch {
	case c.spill != nil:
		return *c.spill
	case c.inline[1].n > 0:
		return c.inline[:]
	case c.inline[0].n > 0:
		return c.inline[:1]
	}
	return nil
}

// bump adds delta to the count of port and reports whether the port appeared
// or vanished. Nothing it stores aliases c, so a c on the stack stays there.
func (c *contrib) bump(port openflow.PortID, delta int) bool {
	ps := c.ports()
	i, found := slices.BinarySearchFunc(ps, int32(port), func(r portRef, p int32) int {
		return cmp.Compare(r.port, p)
	})
	switch {
	case found:
		if ps[i].n += int32(delta); ps[i].n > 0 {
			return false
		}
		copy(ps[i:], ps[i+1:])
		ps[len(ps)-1] = portRef{}
		if c.spill != nil {
			*c.spill = (*c.spill)[:len(ps)-1]
		}
		return true
	case delta <= 0:
		return false
	case c.spill == nil && len(ps) < len(c.inline):
		copy(c.inline[i+1:], c.inline[i:len(ps)])
		c.inline[i] = portRef{int32(port), int32(delta)}
		return true
	case c.spill == nil:
		spill := append(make([]portRef, 0, 2*len(c.inline)), c.inline[:]...)
		c.spill = &spill
	}
	*c.spill = slices.Insert(*c.spill, i, portRef{int32(port), int32(delta)})
	return true
}

// contribState is the controller's view of all established paths: one
// branch per (subscriber, tree), and the per-switch aggregates flow
// derivation reads.
type contribState struct {
	branches map[branchKey]branch
	// direct indexes, per switch, the keys with live contributions by
	// prefix. A switch without contributions has no trie.
	direct map[topo.NodeID]*dz.Trie[contrib]
	// hops is the group of routes addGroup adds next, the hops of each
	// appended: scratch, empty between calls, in hopsBuf until a group
	// outgrows it (four five-hop routes fill 20 slots).
	hops    []topo.Hop
	hopsBuf [32]topo.Hop
}

func newContribState() *contribState {
	cs := &contribState{branches: make(map[branchKey]branch), direct: make(map[topo.NodeID]*dz.Trie[contrib])}
	cs.hops = cs.hopsBuf[:0]
	return cs
}

// addGroup adds sign × the contributions of the routes whose hops are in
// cs.hops, which all carry the expressions of exprs in part, to ch: per
// expression, one delta per distinct (switch, out-port), the number of
// routes crossing it. It empties the group.
func (cs *contribState) addGroup(ch *changeSet, exprs []dz.Expr, part *exprBits, sign int) {
	hops := cs.hops
	slices.SortFunc(hops, func(a, b topo.Hop) int {
		if c := cmp.Compare(a.Switch, b.Switch); c != 0 {
			return c
		}
		return cmp.Compare(a.OutPort, b.OutPort)
	})
	for i, e := range exprs {
		if !part.has(i) {
			continue
		}
		k, _ := dz.KeyOf(e)
		for run := hops; len(run) > 0; {
			n := 1 // the routes crossing run[0]
			for n < len(run) && run[n] == run[0] {
				n++
			}
			key := contribKey{run[0].Switch, k, run[0].OutPort}
			ch.delta[key] += sign * n
			run = run[n:]
		}
	}
	cs.hops = hops[:0]
}

// contribute adds sign × every contribution of the branch at key, if there
// is one, to ch: its routes grouped by the part they carry, one addGroup per
// distinct part. The routes to one subscriber share their last hops, and
// under a tree every publisher covers they carry one part, so a hop they
// share is one delta per expression.
func (cs *contribState) contribute(key branchKey, ch *changeSet, sign int) {
	b, ok := cs.branches[key]
	if !ok {
		return
	}
	n := b.len()
outer:
	for i := range n {
		part := &b.route(i).part
		for j := range i {
			if b.route(j).part.equal(part) {
				continue outer // i's group was added with j's
			}
		}
		for j := i; j < n; j++ {
			if r := b.route(j); r.part.equal(part) {
				cs.hops = append(cs.hops, r.hops...)
			}
		}
		cs.addGroup(ch, b.exprs, part, sign)
	}
}

// removeBranch tears down every route of one branch.
func (cs *contribState) removeBranch(key branchKey, ch *changeSet) {
	cs.contribute(key, ch, -1)
	delete(cs.branches, key)
}

// removeRoute tears down pub's route on one branch, and the branch with its
// last route.
func (cs *contribState) removeRoute(key branchKey, pub *publisher, ch *changeSet) {
	b, ok := cs.branches[key]
	if !ok {
		return
	}
	i := b.routeOf(pub)
	if i < 0 {
		return
	}
	r := b.route(i)
	cs.hops = append(cs.hops, r.hops...)
	cs.addGroup(ch, b.exprs, &r.part, -1)
	if b.drop(i); b.len() == 0 {
		delete(cs.branches, key)
		return
	}
	cs.branches[key] = b
}

// change names a key whose set of contributing ports changed on a switch.
type change struct {
	sw  topo.NodeID
	key dz.Key
}

// apply folds an operation's net changes into the per-switch tries, empties
// the set, and returns the changed keys sorted by switch, then in
// Key.Compare order — the lexicographic order of their expressions: only
// their prefix families can need flow updates — the locality the paper's
// incremental cases (1)–(5) exploit. The list is the set's scratch, valid
// until its next apply.
func (cs *contribState) apply(ch *changeSet) []change {
	if len(ch.delta) == 0 {
		return nil
	}
	changed := ch.changed[:0]
	for key, n := range ch.delta {
		if n != 0 && cs.bump(key, n) {
			changed = append(changed, change{key.sw, key.key})
		}
	}
	clear(ch.delta)
	ch.changed = changed
	slices.SortFunc(changed, func(a, b change) int {
		if c := cmp.Compare(a.sw, b.sw); c != 0 {
			return c
		}
		return a.key.Compare(b.key)
	})
	return slices.Compact(changed) // one key may change on several ports
}

// bump adds delta to one contribution count and reports whether the port
// appeared on or vanished from its key. The trie hands the contribution over
// as a copy and takes it back, so nothing holds it across the Update.
func (cs *contribState) bump(key contribKey, delta int) bool {
	t := cs.direct[key.sw]
	if t == nil {
		if delta < 0 {
			return false
		}
		t = new(dz.Trie[contrib])
		cs.direct[key.sw] = t
	}
	changed := false
	t.Update(key.key, func(c contrib, _ bool) (contrib, bool) {
		changed = c.bump(key.port, delta)
		return c, len(c.ports()) > 0
	})
	if t.Len() == 0 {
		delete(cs.direct, key.sw)
	}
	return changed
}

// addRoute adds exprs to pub's route on the branch of sub on t, establishing
// the route along the tree on first use. The route is fixed while the
// branch lives: t.span only changes in mergeTrees and RebuildTrees, which
// drop the tree's branches first. The newly carried expressions enter ch at
// once; with ch nil they are only recorded, for a caller that builds whole
// branches (subscribe, establishTreePaths) and adds each once it is built
// (contribState.contribute).
func (c *Controller) addRoute(t *tree, pub *publisher, sub *subscriber,
	exprs dz.Set, ch *changeSet, rep *ReconfigReport) error {
	if exprs.IsEmpty() {
		return nil
	}
	key := branchKey{sub: sub.id, tree: t.id}
	b := c.contribs.branches[key]
	i := b.routeOf(pub)
	if i < 0 {
		hops, err := c.routeHops(t, pub.ep, sub.ep)
		if err != nil {
			return err
		}
		if b.exprs == nil {
			// Sized once for the subscriber's whole part of the tree: a
			// subscription adds its members' parts one call at a time.
			b.exprs = make([]dz.Expr, 0, max(len(exprs), len(t.subs[sub.id])))
		}
		i = b.push(route{pub: pub, hops: hops}, len(t.pubs))
	}
	rep.RoutesComputed++
	r := b.route(i)
	var added exprBits
	for _, e := range exprs {
		if x := b.index(e); !r.part.has(x) {
			r.part.set(x)
			added.set(x)
		}
	}
	if ch != nil && !added.empty() {
		c.contribs.hops = append(c.contribs.hops, r.hops...)
		c.contribs.addGroup(ch, b.exprs, &added, +1)
	}
	c.contribs.branches[key] = b
	return nil
}

// routeHops returns the (switch, out-port) sequence between two endpoints
// along the tree, computed on the first request and cached on the tree
// (tree.routes) for the next. The slice is shared: callers only read it.
func (c *Controller) routeHops(t *tree, from, to endpoint) ([]topo.Hop, error) {
	if v := c.g.Version(); t.routes == nil || t.routesAt != v {
		t.routes, t.routesAt = make(map[routeKey][]topo.Hop), v
	}
	key := routeKey{from, to}
	if hops, ok := t.routes[key]; ok {
		return hops, nil
	}
	hops, err := c.computeRoute(t, from, to)
	if err != nil {
		return nil, err
	}
	hops = slices.Clip(hops)
	t.routes[key] = hops
	return hops, nil
}

// computeRoute computes the route of routeHops on the tree's spanning tree.
// Virtual endpoints sit on a border switch and extend the route with the
// cross-partition exit port.
func (c *Controller) computeRoute(t *tree, from, to endpoint) ([]topo.Hop, error) {
	if from.node == to.node && !from.virtual() && !to.virtual() {
		// Publisher and subscriber share a host: the spanning-tree path
		// degenerates to the host alone, but the packet still crosses the
		// access link, so program the access switch to hairpin it back down
		// the same port. Without this hop a colocated subscriber never
		// receives anything.
		sw, err := c.g.AttachedSwitch(from.node)
		if err != nil {
			return nil, fmt.Errorf("core: route on tree %d: %w", t.id, err)
		}
		port, ok := c.g.PortTowards(sw, from.node)
		if !ok {
			return nil, fmt.Errorf("core: no port from switch %d towards host %d", sw, from.node)
		}
		return []topo.Hop{{Switch: sw, OutPort: port}}, nil
	}
	path, err := t.span.PathBetween(from.node, to.node)
	if err != nil {
		return nil, fmt.Errorf("core: route on tree %d: %w", t.id, err)
	}
	hops, err := c.g.RouteHops(path)
	if err != nil {
		return nil, fmt.Errorf("core: route hops: %w", err)
	}
	if to.virtual() {
		hops = append(hops, topo.Hop{Switch: to.node, OutPort: to.viaPort})
	}
	return hops, nil
}

// derivation derives canonical flow entries from one switch's contribution
// trie. The canonical entry of a direct key x forwards to the union of the
// direct ports of every prefix of x, x included, at priority |x|; x gets no
// entry when that union equals the one of its nearest coarser direct key a,
// whose entry then forwards identically (pruned, cf. case (2) of
// Section 3.3.2). No direct key lies between a and x, so
// union(x) = union(a) ∪ direct(x), and "equal" is "x adds no port to
// union(a)" — a length comparison of two sorted sets, one containing the
// other. The zero value is ready for use.
type derivation struct {
	ports []openflow.PortID // the unions of the frames on stack, back to back
	stack []unionFrame
	// Initial backing of ports and stack: a switch has a handful of ports
	// and direct keys rarely nest deeper than this.
	portsBuf [32]openflow.PortID
	stackBuf [8]unionFrame
}

// unionFrame is the port union of one direct key on the path from the trie
// root to the entry being visited: ports[lo:hi], sorted.
type unionFrame struct {
	key    dz.Key
	lo, hi int
}

// family calls visit, in lexicographic order, for every key that a change to
// the contributions of changed can affect. changed is a sorted run of one
// switch's changed keys, its first member, root, covering the rest; affected
// are changed itself and every direct key root covers, because an entry's
// union depends only on its prefixes and its pruning on its nearest coarser
// entry. ports is the key's canonical entry, valid only during the call, and
// empty when it gets none: it is pruned, or (direct false) a changed key
// left without direct contribution.
//
// It is one VisitOverlaps descent: root's proper prefixes, coarsest first,
// accumulate the union every member inherits (frame 0); the covered subtree
// arrives in pre-order, so the direct keys covering the visited one are
// exactly a stack, unwound to the nearest by prefix test. The changed keys
// the trie no longer holds are merged in at their position.
func (d *derivation) family(t *dz.Trie[contrib], changed []change,
	visit func(k dz.Key, ports []openflow.PortID, direct bool)) {
	root := changed[0].key
	d.ports = d.portsBuf[:0]
	d.stack = append(d.stackBuf[:0], unionFrame{})
	if t != nil {
		t.VisitOverlaps(root, func(k dz.Key, c contrib) bool {
			if k.Len() < root.Len() {
				d.stack[0] = d.extend(d.stack[0], k, c.ports())
				return true
			}
			for ; len(changed) > 0 && changed[0].key.Compare(k) <= 0; changed = changed[1:] {
				if changed[0].key != k {
					visit(changed[0].key, nil, false)
				}
			}
			top := len(d.stack) - 1
			for top > 0 && !d.stack[top].key.Covers(k) {
				top--
			}
			parent := d.stack[top]
			d.stack, d.ports = d.stack[:top+1], d.ports[:parent.hi]
			f := d.extend(parent, k, c.ports())
			d.stack = append(d.stack, f)
			ports := d.ports[f.lo:f.hi]
			if len(ports) == parent.hi-parent.lo {
				ports = nil
			}
			visit(k, ports, true)
			return true
		})
	}
	for _, c := range changed {
		visit(c.key, nil, false)
	}
}

// extend appends parent's union merged with the direct ports of k to d.ports
// and returns k's frame.
func (d *derivation) extend(parent unionFrame, k dz.Key, direct []portRef) unionFrame {
	lo := len(d.ports)
	a, b := d.ports[parent.lo:parent.hi], direct // appending never writes below parent.hi
	for len(a) > 0 && len(b) > 0 {
		switch p := openflow.PortID(b[0].port); {
		case a[0] < p:
			d.ports, a = append(d.ports, a[0]), a[1:]
		case a[0] > p:
			d.ports, b = append(d.ports, p), b[1:]
		default:
			d.ports, a, b = append(d.ports, a[0]), a[1:], b[1:]
		}
	}
	d.ports = append(d.ports, a...)
	for _, r := range b {
		d.ports = append(d.ports, openflow.PortID(r.port))
	}
	return unionFrame{key: k, lo: lo, hi: len(d.ports)}
}

// desiredTable derives the full canonical flow table of one switch from
// scratch: the family of the whole event space. VerifyTables and resync
// compare against it; control operations use refreshSwitch instead.
func (c *Controller) desiredTable(sw topo.NodeID) map[dz.Key][]openflow.PortID {
	t := c.contribs.direct[sw]
	if t == nil {
		return nil
	}
	entries := make(map[dz.Key][]openflow.PortID, t.Len())
	new(derivation).family(t, []change{{sw, dz.Key{}}}, func(k dz.Key, ports []openflow.PortID, _ bool) {
		if len(ports) > 0 {
			entries[k] = slices.Clone(ports)
		}
	})
	return entries
}

func actionsEqual(a, b []openflow.Action) bool { return slices.Equal(a, b) }

// refreshSwitch reconciles the flows of one switch with its contribution
// trie after the port sets of the changed keys (sorted) changed: one
// derivation.family walk per run of changed keys the first covers, so the
// FlowMods come out in lexicographic expression order.
//
// All FlowMods the switch owes are collected into one batch — in the
// controller's scratch, emptied again once the batch is flushed — and
// flushed in a single southbound call. The derivation is the controller's
// too: it would escape to the heap as a local.
func (c *Controller) refreshSwitch(sw topo.NodeID, changed []change,
	inst map[dz.Key]installedFlow, rep *ReconfigReport) error {
	ops, metas := c.batchOps, c.batchMetas
	reconcile := func(k dz.Key, ports []openflow.PortID, direct bool) {
		fl, installed := inst[k]
		want := len(ports) > 0
		switch {
		case !want && installed:
			// Distinguish the Algorithm-1 outcome: an entry whose direct
			// contributions vanished is a plain delete; one that still has
			// direct contributions was pruned because a coarser entry now
			// forwards identically (the paper's containment case).
			if direct {
				c.inst.caseCovered.Inc()
			} else {
				c.inst.caseDelete.Inc()
			}
			ops = append(ops, openflow.DeleteOp(fl.id))
			metas = append(metas, opMeta{key: k})
		case want && !installed:
			c.inst.caseInstall.Inc()
			// The installed entry keeps the actions too: like a modify's,
			// neither side writes them.
			actions := c.actionsFor(sw, ports)
			ops = append(ops, openflow.AddOp(openflow.Flow{Key: k, Priority: k.Len(), Actions: actions}))
			metas = append(metas, opMeta{key: k, inst: installedFlow{actions: actions}})
		case want && installed:
			actions := c.actionsFor(sw, ports)
			if actionsEqual(fl.actions, actions) {
				break
			}
			// A grown instruction set extends the entry to more ports;
			// a shrunken one is the downgrade of Section 3.3.3.
			switch {
			case len(actions) > len(fl.actions):
				c.inst.caseExtend.Inc()
			case len(actions) < len(fl.actions):
				c.inst.caseDowngrade.Inc()
			default:
				c.inst.caseModify.Inc()
			}
			ops = append(ops, openflow.ModifyOp(fl.id, k.Len(), actions))
			metas = append(metas, opMeta{key: k, inst: installedFlow{id: fl.id, actions: actions}})
		}
	}
	t := c.contribs.direct[sw]
	d := &c.deriv
	for len(changed) > 0 {
		n := 1
		for n < len(changed) && changed[0].key.Covers(changed[n].key) {
			n++
		}
		d.family(t, changed[:n], reconcile)
		changed = changed[n:]
	}
	err := c.flushOps(sw, ops, metas, inst, rep)
	c.batchOps, c.batchMetas = emptied(ops), emptied(metas)
	return err
}

// emptied zeroes s and returns it with length 0 and its capacity kept.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// opMeta pairs one batch op with the installed-state update to apply once
// the op is known to have taken effect on the switch.
type opMeta struct {
	key dz.Key
	// inst is the entry to store for adds/modifies (the add's flow ID is
	// filled in from the programmer's result); unused for deletes.
	inst installedFlow
}

// ackedOp is one southbound operation the switch acknowledged: its kind,
// the installed-state update it implies, and — for adds only — the
// switch-assigned flow ID. Carrying the outcome in a typed record (instead
// of a parallel []FlowID with placeholder zeros for deletes/modifies)
// makes the acknowledged prefix unambiguous: an add of real FlowID 0 can
// never be confused with a delete's placeholder.
type ackedOp struct {
	kind openflow.OpKind
	meta opMeta
	id   openflow.FlowID // valid only for adds
}

// flushOps ships the FlowMods of one switch southbound as a single batch,
// retrying transient failures per the controller's RetryPolicy, and applies
// the corresponding installed-state updates for every op that took effect.
//
// Error semantics: permanent programmer errors surface as a
// *SouthboundError (the acknowledged prefix is still recorded). Transient
// errors that survive every retry do NOT fail the control operation;
// instead the switch is quarantined in the degraded set — its table now
// lags the canonical state — and the next resync pass heals it.
func (c *Controller) flushOps(sw topo.NodeID, ops []openflow.FlowOp, metas []opMeta,
	inst map[dz.Key]installedFlow, rep *ReconfigReport) error {
	if len(ops) == 0 {
		return nil
	}
	if c.replaying {
		// Journal replay rebuilds desired state only. The switches the
		// standby inherits already executed the dead controller's FlowMods
		// (with switch-assigned flow IDs this incarnation never saw), so
		// replay ships nothing southbound and leaves the installed view
		// stale; the takeover resync rebuilds it from the switches' actual
		// flows, adopting their IDs.
		return nil
	}
	acked := c.acked
	err := c.programWithRetry(sw, ops, metas, &acked, rep)
	// Record exactly the ops the switch acknowledged. The lifetime FlowMod
	// counters move here too — per acknowledged op, in both the refresh and
	// the resync path — so they stay the single source the Stats view and
	// the metrics exposition read.
	for _, a := range acked {
		switch a.kind {
		case openflow.OpAdd:
			m := a.meta.inst
			m.id = a.id
			inst[a.meta.key] = m
			rep.FlowAdds++
			c.inst.flowAdds.Inc()
		case openflow.OpDelete:
			delete(inst, a.meta.key)
			rep.FlowDeletes++
			c.inst.flowDeletes.Inc()
		case openflow.OpModify:
			inst[a.meta.key] = a.meta.inst
			rep.FlowModifies++
			c.inst.flowModifies.Inc()
		}
	}
	if n := len(acked); n > 0 {
		c.inst.swFlowMods.With(sw).Add(uint64(n))
		if sp := c.span; sp != nil {
			sp.Event("programmed", "switch", swLabel(sw), "ops", strconv.Itoa(n))
		}
	}
	c.acked = emptied(acked)
	return err
}

// programWithRetry drives the southbound attempts of one flush: each
// attempt ships the still-pending suffix, acknowledged ops accumulate in
// acked, and transient failures back off exponentially (capped, within
// the per-operation deadline) before retrying. On exhaustion the switch
// is quarantined and nil is returned; permanent errors return immediately
// as a *SouthboundError.
func (c *Controller) programWithRetry(sw topo.NodeID, ops []openflow.FlowOp, metas []opMeta,
	acked *[]ackedOp, rep *ReconfigReport) error {
	pol := c.retry.Normalized()
	attempts := 0
	var waited time.Duration
	for {
		n, err := c.programOnce(sw, ops, metas, acked, rep)
		attempts++
		ops, metas = ops[n:], metas[n:]
		if err == nil || len(ops) == 0 {
			// A programmer that errors after acknowledging every op has
			// still applied the whole flush; treat it as success.
			return nil
		}
		serr := &SouthboundError{
			Sw:        sw,
			Op:        ops[0].Kind,
			Attempts:  attempts,
			Transient: isTransient(err),
			Err:       err,
		}
		if !serr.Transient {
			return serr
		}
		if attempts < pol.MaxAttempts {
			d := pol.Backoff(attempts - 1)
			if pol.OpDeadline <= 0 || waited+d <= pol.OpDeadline {
				waited += d
				if d > 0 {
					pol.Sleep(d)
				}
				rep.Retries++
				c.inst.retries.Inc()
				c.inst.swRetries.With(sw).Inc()
				continue
			}
		}
		// Retries exhausted (attempt budget or deadline): quarantine the
		// switch instead of failing the whole control operation. The
		// unacknowledged remainder counts as abandoned FlowMods.
		c.inst.swFailures.With(sw).Add(uint64(len(ops)))
		c.quarantine(sw, serr, rep)
		return nil
	}
}

// programOnce ships the pending ops as one batch and appends one typed
// ackedOp per acknowledged operation. It returns how many ops the switch
// acknowledged in this attempt.
func (c *Controller) programOnce(sw topo.NodeID, ops []openflow.FlowOp, metas []opMeta,
	acked *[]ackedOp, rep *ReconfigReport) (int, error) {
	rep.SouthboundCalls++
	c.inst.southboundCalls.Inc()
	ids, err := c.prog.ApplyBatch(sw, ops, c.ids[:0])
	c.ids = ids
	for i := range ids {
		a := ackedOp{kind: ops[i].Kind, meta: metas[i]}
		if ops[i].Kind == openflow.OpAdd {
			a.id = ids[i]
		}
		*acked = append(*acked, a)
	}
	return len(ids), err
}

// quarantine moves a switch into the degraded set.
func (c *Controller) quarantine(sw topo.NodeID, err error, rep *ReconfigReport) {
	if c.degraded.put(sw, err) {
		rep.Quarantined++
		c.inst.quarantines.Inc()
	}
	if sp := c.span; sp != nil {
		sp.Event("quarantined", "switch", swLabel(sw), "err", err.Error())
	}
}

// refresh folds the operation's contribution changes into the tries and
// reconciles every switch on which a key's port set changed: one
// batch per touched switch, in ascending switch order. The first permanent
// error stops the operation — lower-numbered switches are programmed,
// higher ones are not, and the next resync pass converges them; transient
// exhaustion quarantines its switch and the loop carries on.
func (c *Controller) refresh(ch *changeSet, rep *ReconfigReport) error {
	changed := c.contribs.apply(ch)
	for len(changed) > 0 {
		sw, n := changed[0].sw, 1
		for n < len(changed) && changed[n].sw == sw {
			n++
		}
		inst := c.installed[sw]
		if inst == nil {
			inst = make(map[dz.Key]installedFlow)
			c.installed[sw] = inst
		}
		err := c.refreshSwitch(sw, changed[:n], inst, rep)
		if len(inst) == 0 {
			delete(c.installed, sw)
		}
		if err != nil {
			return err
		}
		changed = changed[n:]
	}
	return nil
}

// VerifyTables cross-checks the incrementally maintained flow state
// against the full canonical derivation; it is used by tests and returns
// the first inconsistency found. Called by the owner, it falls between
// control operations, so it sees a consistent state.
func (c *Controller) VerifyTables() error {
	// Every switch with installed flows or contributions must agree.
	sws := append(sortutil.Keys(c.installed), sortutil.Keys(c.contribs.direct)...)
	slices.Sort(sws)
	for _, sw := range slices.Compact(sws) {
		want := c.desiredTable(sw)
		have := c.installed[sw]
		if len(want) != len(have) {
			return fmt.Errorf("core: switch %d has %d flows, canonical says %d", sw, len(have), len(want))
		}
		for k, ports := range want {
			fl, ok := have[k]
			if !ok {
				return fmt.Errorf("core: switch %d misses flow %s", sw, k.Expr())
			}
			actions := c.actionsFor(sw, ports)
			if !actionsEqual(fl.actions, actions) {
				return fmt.Errorf("core: switch %d flow %s diverges from canonical", sw, k.Expr())
			}
		}
		// When the programmer can report ground truth, extend the check
		// down to the switch's actual table: every installed entry must be
		// present there unchanged, with no stray extras.
		if c.reader == nil {
			continue
		}
		flows, err := c.reader.Flows(sw)
		if err != nil {
			return fmt.Errorf("core: switch %d: read flows: %w", sw, err)
		}
		if len(flows) != len(have) {
			return fmt.Errorf("core: switch %d table has %d flows, controller installed %d", sw, len(flows), len(have))
		}
		for _, f := range flows {
			fl, ok := have[f.Key]
			if !ok {
				return fmt.Errorf("core: switch %d has stray flow %s", sw, f.Expr())
			}
			if fl.id != f.ID || f.Priority != f.Key.Len() || !actionsEqual(fl.actions, f.Actions) {
				return fmt.Errorf("core: switch %d flow %s diverges from installed state", sw, f.Expr())
			}
		}
	}
	return nil
}

// InstalledFlowCount returns the number of flows the controller currently
// has programmed across all switches (the TCAM budget of requirement 3).
func (c *Controller) InstalledFlowCount() int {
	total := 0
	for _, m := range c.installed {
		total += len(m)
	}
	return total
}
