package core

import (
	"fmt"
	"slices"
	"sort"

	"pleroma/internal/dz"
	"pleroma/internal/openflow"
	"pleroma/internal/sortutil"
	"pleroma/internal/topo"
	"pleroma/internal/wire"
)

// Advertise processes an advertisement from a publisher host (Algorithm 1,
// lines 1–15): the publisher joins every tree whose DZ overlaps the
// advertisement, a new tree is created for uncovered subspaces, and routes
// to all matching subscribers are installed. The controller takes
// ownership of set; the caller must not modify it afterwards.
func (c *Controller) Advertise(id string, host topo.NodeID, set dz.Set) (ReconfigReport, error) {
	ep, err := c.hostEndpoint(host)
	if err != nil {
		return ReconfigReport{}, err
	}
	return c.advertise(id, ep, set)
}

// AdvertiseVirtual registers an external advertisement arriving from a
// neighbouring partition through the given border switch port (Section
// 4.2): the virtual host behaves like a publisher attached to that switch.
func (c *Controller) AdvertiseVirtual(id string, borderSwitch topo.NodeID, viaPort openflow.PortID, set dz.Set) (ReconfigReport, error) {
	ep, err := c.virtualEndpoint(borderSwitch, viaPort)
	if err != nil {
		return ReconfigReport{}, err
	}
	return c.advertise(id, ep, set)
}

func (c *Controller) advertise(id string, ep endpoint, set dz.Set) (rep ReconfigReport, err error) {
	if _, dup := c.pubs[id]; dup {
		return rep, fmt.Errorf("%w: publisher %q", ErrDuplicateClient, id)
	}
	if err = admit("advertisement", id, set); err != nil {
		return rep, err
	}
	span, start := c.beginOp(opAdvertise, func() string { return id + " " + set.String() })
	defer func() { c.endOp(opAdvertise, span, start, &rep, err) }()
	pub := &publisher{id: id, ep: ep, adv: set}
	c.pubs[id] = pub
	c.inst.advertise.Inc()

	ch := newChangeSet()
	defer c.contribs.apply(ch) // a failure before refresh keeps tries and branches in step
	for _, dzi := range set {
		covered := dz.Set(nil)
		for _, tid := range c.treeIdx.overlapping(dzi) {
			t := c.trees[tid]
			overlap := t.set.IntersectExpr(dzi) // DZ^t(p) part from dz_i
			covered = covered.Union(overlap)
			c.joinTreeAsPublisher(t, pub, overlap, &rep)
			if err := c.addFlowMultSub(t, pub, overlap, ch, &rep); err != nil {
				return rep, err
			}
		}
		uncovered := dz.Set{dzi}.Subtract(covered)
		if !uncovered.IsEmpty() {
			t, err := c.createTree(pub, uncovered, &rep)
			if err != nil {
				return rep, err
			}
			if err := c.addFlowMultSub(t, pub, uncovered, ch, &rep); err != nil {
				return rep, err
			}
		}
	}
	if err := c.mergeTreesIfNeeded(ch, &rep); err != nil {
		return rep, err
	}
	if err := c.refresh(ch, &rep); err != nil {
		return rep, err
	}
	if err := c.journalOp(wire.OpAdvertise, id, ep, set); err != nil {
		return rep, err
	}
	return rep, nil
}

// Subscribe processes a subscription from a host (Algorithm 1, lines
// 16–25): the subscriber joins every overlapping tree and paths from all
// publishers with overlapping advertisements are installed. A subscription
// that overlaps no tree is stored at the controller and revisited when
// trees change. The controller takes ownership of set; the caller must not
// modify it afterwards.
func (c *Controller) Subscribe(id string, host topo.NodeID, set dz.Set) (ReconfigReport, error) {
	ep, err := c.hostEndpoint(host)
	if err != nil {
		return ReconfigReport{}, err
	}
	return c.subscribe(id, ep, set)
}

// SubscribeVirtual registers an external subscription arriving from a
// neighbouring partition via a border switch port.
func (c *Controller) SubscribeVirtual(id string, borderSwitch topo.NodeID, viaPort openflow.PortID, set dz.Set) (ReconfigReport, error) {
	ep, err := c.virtualEndpoint(borderSwitch, viaPort)
	if err != nil {
		return ReconfigReport{}, err
	}
	return c.subscribe(id, ep, set)
}

func (c *Controller) subscribe(id string, ep endpoint, set dz.Set) (rep ReconfigReport, err error) {
	if _, dup := c.subs[id]; dup {
		return rep, fmt.Errorf("%w: subscriber %q", ErrDuplicateClient, id)
	}
	if err = admit("subscription", id, set); err != nil {
		return rep, err
	}
	span, start := c.beginOp(opSubscribe, func() string { return id + " " + set.String() })
	defer func() { c.endOp(opSubscribe, span, start, &rep, err) }()
	sub := &subscriber{id: id, ep: ep, sub: set}
	c.subs[id] = sub
	c.inst.subscribe.Inc()

	ch := c.opCh
	defer c.contribs.apply(ch) // a failure before refresh keeps tries and branches in step, and empties ch
	err = c.subscribeRoutes(sub, &rep)
	// The subscription's branches are all new: each enters ch whole, its
	// routes grouped, also when a route failed after others were recorded.
	for _, tid := range sub.trees {
		c.contribs.contribute(branchKey{sub: id, tree: tid}, ch, +1)
	}
	if err != nil {
		return rep, err
	}
	if len(sub.trees) == 0 {
		rep.Stored = true
		c.inst.storedSubs.Inc()
	}
	if err := c.refresh(ch, &rep); err != nil {
		return rep, err
	}
	if err := c.journalOp(wire.OpSubscribe, id, ep, set); err != nil {
		return rep, err
	}
	return rep, nil
}

// subscribeRoutes joins sub to every tree its set overlaps and records a
// route from each of the tree's publishers that covers part of it, without
// contributions: Algorithm 1, lines 16–25.
func (c *Controller) subscribeRoutes(sub *subscriber, rep *ReconfigReport) error {
	c.pubOrder = c.pubOrder[:0]
	for _, dzi := range sub.sub {
		for _, tid := range c.treeIdx.overlapping(dzi) {
			t := c.trees[tid]
			if sub.trees.add(tid) {
				// DZ^t(s) at once: the union of every member's part below.
				t.subs[sub.id] = sub.sub.Intersect(t.set)
			}
			overlap := t.set.IntersectExpr(dzi) // DZ^t(s) part from dz_i
			for _, pid := range c.sortedPubs(t) {
				if err := c.addRoute(t, c.pubs[pid], sub, overlap.Intersect(t.pubs[pid]), nil, rep); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// treePubs is one tree's publisher ids, sorted.
type treePubs struct {
	tree TreeID
	ids  []string
}

// sortedPubs returns t's publisher ids in ascending order. A subscription
// sorts them once per tree: c.pubOrder keeps the trees it sorted, in slots
// whose id slices the next subscription reuses.
func (c *Controller) sortedPubs(t *tree) []string {
	for _, tp := range c.pubOrder {
		if tp.tree == t.id {
			return tp.ids
		}
	}
	n := len(c.pubOrder)
	c.pubOrder = slices.Grow(c.pubOrder, 1)[:n+1]
	tp := &c.pubOrder[n]
	tp.tree, tp.ids = t.id, tp.ids[:0]
	for id := range t.pubs {
		tp.ids = append(tp.ids, id)
	}
	slices.Sort(tp.ids)
	return tp.ids
}

// Unsubscribe removes a subscription: previously established paths are
// torn down, deleting flows no other path needs and downgrading shared
// ones (Section 3.3.3).
func (c *Controller) Unsubscribe(id string) (rep ReconfigReport, err error) {
	sub, ok := c.subs[id]
	if !ok {
		return rep, fmt.Errorf("%w: subscriber %q", ErrUnknownClient, id)
	}
	span, start := c.beginOp(opUnsubscribe, func() string { return id })
	defer func() { c.endOp(opUnsubscribe, span, start, &rep, err) }()
	c.inst.unsubscribe.Inc()
	ch := c.opCh // refresh empties it
	for _, tid := range sub.trees {
		if t, ok := c.trees[tid]; ok {
			c.contribs.removeBranch(branchKey{sub: id, tree: tid}, ch)
			delete(t.subs, id)
		}
	}
	delete(c.subs, id)
	if err := c.refresh(ch, &rep); err != nil {
		return rep, err
	}
	if err := c.journalOp(wire.OpUnsubscribe, id, endpoint{}, nil); err != nil {
		return rep, err
	}
	return rep, nil
}

// Unadvertise removes an advertisement. Trees left without any publisher
// are dismantled; their subscribers fall back to stored state for the
// affected subspaces.
func (c *Controller) Unadvertise(id string) (rep ReconfigReport, err error) {
	pub, ok := c.pubs[id]
	if !ok {
		return rep, fmt.Errorf("%w: publisher %q", ErrUnknownClient, id)
	}
	span, start := c.beginOp(opUnadvertise, func() string { return id })
	defer func() { c.endOp(opUnadvertise, span, start, &rep, err) }()
	c.inst.unadvertise.Inc()
	ch := newChangeSet()
	for _, tid := range pub.trees {
		t, ok := c.trees[tid]
		if !ok {
			continue
		}
		for sid := range t.subs {
			c.contribs.removeRoute(branchKey{sub: sid, tree: tid}, pub, ch)
		}
		delete(t.pubs, id)
		if len(t.pubs) == 0 {
			c.dismantleTree(t)
		}
	}
	delete(c.pubs, id)
	if err := c.refresh(ch, &rep); err != nil {
		return rep, err
	}
	if err := c.journalOp(wire.OpUnadvertise, id, endpoint{}, nil); err != nil {
		return rep, err
	}
	return rep, nil
}

// admit rejects, before the request changes any state, a DZ set the
// controller cannot program: an empty set, or a subspace too long for a flow
// match — dz.MaxKeyBits is the dz capacity of the IPv6 embedding and of the
// prefix-index keys, so every admitted member packs into a dz.Key
// losslessly. L_dz is the facade's to apply. The set is used, not copied:
// callers hand it over, and the controller only reads it.
func admit(kind, id string, set dz.Set) error {
	if set.IsEmpty() {
		return fmt.Errorf("core: %s %q has empty DZ set", kind, id)
	}
	if n := set.MaxLen(); n > dz.MaxKeyBits {
		return fmt.Errorf("core: %s %q: dz length %d exceeds %d bits", kind, id, n, dz.MaxKeyBits)
	}
	return nil
}

// hostEndpoint validates a regular client location.
func (c *Controller) hostEndpoint(host topo.NodeID) (endpoint, error) {
	n, err := c.g.Node(host)
	if err != nil {
		return endpoint{}, err
	}
	if n.Kind != topo.KindHost {
		return endpoint{}, fmt.Errorf("core: node %d (%s) is not a host", host, n.Name)
	}
	if !c.inPartition(host) {
		return endpoint{}, fmt.Errorf("%w: host %d", ErrForeignNode, host)
	}
	return endpoint{node: host}, nil
}

// virtualEndpoint validates a virtual client location at a border switch.
func (c *Controller) virtualEndpoint(sw topo.NodeID, viaPort openflow.PortID) (endpoint, error) {
	n, err := c.g.Node(sw)
	if err != nil {
		return endpoint{}, err
	}
	if n.Kind != topo.KindSwitch {
		return endpoint{}, fmt.Errorf("core: node %d (%s) is not a switch", sw, n.Name)
	}
	if !c.inPartition(sw) {
		return endpoint{}, fmt.Errorf("%w: switch %d", ErrForeignNode, sw)
	}
	if viaPort == 0 {
		return endpoint{}, fmt.Errorf("core: virtual endpoint needs a border port")
	}
	if _, ok := c.g.PortToPeer(sw, viaPort); !ok {
		return endpoint{}, fmt.Errorf("core: switch %d has no port %d", sw, viaPort)
	}
	return endpoint{node: sw, viaPort: viaPort}, nil
}

// joinTreeAsPublisher records DZ^t(p) for a publisher joining a tree.
func (c *Controller) joinTreeAsPublisher(t *tree, pub *publisher, overlap dz.Set, rep *ReconfigReport) {
	if pub.trees.add(t.id) {
		rep.TreesJoined++
	}
	t.pubs[pub.id] = t.pubs[pub.id].Union(overlap)
}

// joinTreeAsSubscriber records DZ^t(s) for a subscriber joining a tree.
func (c *Controller) joinTreeAsSubscriber(t *tree, sub *subscriber, overlap dz.Set) {
	sub.trees.add(t.id)
	t.subs[sub.id] = t.subs[sub.id].Union(overlap)
}

// addFlowMultSub implements the procedure of Algorithm 1 (lines 26–30):
// every subscriber whose subscription overlaps the publisher's new tree
// subspaces gets a path from the publisher.
func (c *Controller) addFlowMultSub(t *tree, pub *publisher, set dz.Set,
	ch *changeSet, rep *ReconfigReport) error {
	for _, sid := range sortutil.Keys(c.subs) {
		sub := c.subs[sid]
		ov := set.Intersect(sub.sub)
		if ov.IsEmpty() {
			continue
		}
		c.joinTreeAsSubscriber(t, sub, ov)
		if err := c.addRoute(t, pub, sub, ov, ch, rep); err != nil {
			return err
		}
	}
	return nil
}

// createTree builds a new dissemination tree rooted at the publisher
// (Section 3.2, procedure createTree): a shortest-path tree over the
// partition.
func (c *Controller) createTree(pub *publisher, set dz.Set, rep *ReconfigReport) (*tree, error) {
	span, err := c.g.ShortestPathTree(pub.ep.node, c.includeFunc())
	if err != nil {
		return nil, fmt.Errorf("core: create tree: %w", err)
	}
	c.nextTree++
	// set is always a freshly computed uncovered remainder that no caller
	// retains, and dz.Set operations never mutate in place — aliasing it
	// into the tree is safe and saves two clones per tree creation.
	t := &tree{
		id:   c.nextTree,
		set:  set,
		span: span,
		root: pub.ep.node,
		pubs: map[string]dz.Set{pub.id: set},
		subs: make(map[string]dz.Set),
	}
	pub.trees.add(t.id)
	c.trees[t.id] = t
	c.treeIdx.add(t.id, t.set)
	c.inst.treesCreated.Inc()
	c.inst.treeDz.With(t.id).Set(int64(len(t.set)))
	rep.TreesCreated++
	if sp := c.span; sp != nil {
		sp.Event("tree created", "tree", treeLabel(t.id), "dz", t.set.String())
	}
	return t, nil
}

// dropTreePaths tears down every branch of t.
func (c *Controller) dropTreePaths(t *tree, ch *changeSet) {
	for sid := range t.subs {
		c.contribs.removeBranch(branchKey{sub: sid, tree: t.id}, ch)
	}
}

// establishTreePaths establishes every publisher→subscriber path of t from
// its overlap sets DZ^t(p) ∩ DZ^t(s), on a tree without branches (its
// paths dropped, or just restored): each branch enters ch whole once its
// routes are recorded, also when a later route failed.
func (c *Controller) establishTreePaths(t *tree, ch *changeSet, rep *ReconfigReport) error {
	err := c.treeRoutes(t, rep)
	for sid := range t.subs {
		c.contribs.contribute(branchKey{sub: sid, tree: t.id}, ch, +1)
	}
	return err
}

// treeRoutes records the routes of establishTreePaths, without
// contributions. Path removal walks the clients' tree memberships, so every
// member of t must be a registered client that lists t: a restored snapshot
// is outside input and can say otherwise.
func (c *Controller) treeRoutes(t *tree, rep *ReconfigReport) error {
	for _, pid := range sortutil.Keys(t.pubs) {
		pub := c.pubs[pid]
		if pub == nil || !pub.trees.has(t.id) {
			return fmt.Errorf("tree %d references unknown or non-member publisher %q", t.id, pid)
		}
		for _, sid := range sortutil.Keys(t.subs) {
			sub := c.subs[sid]
			if sub == nil || !sub.trees.has(t.id) {
				return fmt.Errorf("tree %d references unknown or non-member subscriber %q", t.id, sid)
			}
			if err := c.addRoute(t, pub, sub, t.pubs[pid].Intersect(t.subs[sid]), nil, rep); err != nil {
				return err
			}
		}
	}
	return nil
}

// dismantleTree removes a tree whose last publisher — and with it its last
// path — is gone, and all its residual state.
func (c *Controller) dismantleTree(t *tree) {
	for sid := range t.subs {
		if s, ok := c.subs[sid]; ok {
			s.trees.remove(t.id)
		}
	}
	for pid := range t.pubs {
		if p, ok := c.pubs[pid]; ok {
			p.trees.remove(t.id)
		}
	}
	c.treeIdx.remove(t.set)
	delete(c.trees, t.id)
	c.inst.treeDz.Delete(t.id)
	if sp := c.span; sp != nil {
		sp.Event("tree dismantled", "tree", treeLabel(t.id))
	}
}

// mergeTreesIfNeeded merges trees while their number exceeds the
// configured threshold (Section 3.2). The pair whose DZ sets share the
// longest common prefix is merged first, so subspaces that canonicalise
// into a coarser one (the paper's {0000,0010}+{0001,0011} ⇒ {00} example)
// collapse naturally.
func (c *Controller) mergeTreesIfNeeded(ch *changeSet, rep *ReconfigReport) error {
	if c.maxTrees <= 0 {
		return nil
	}
	for len(c.trees) > c.maxTrees && len(c.trees) >= 2 {
		t1, t2 := c.pickMergePair()
		if t1 == nil {
			return nil
		}
		if err := c.mergeTrees(t1, t2, ch, rep); err != nil {
			return err
		}
	}
	return nil
}

// pickMergePair chooses the two trees with the highest merge affinity
// (longest common dz prefix between their DZ sets; ties by lower IDs).
func (c *Controller) pickMergePair() (*tree, *tree) {
	trees := c.sortedTrees()
	if len(trees) < 2 {
		return nil, nil
	}
	bestI, bestJ, bestAff := 0, 1, -1
	for i := 0; i < len(trees); i++ {
		for j := i + 1; j < len(trees); j++ {
			aff := mergeAffinity(trees[i].set, trees[j].set)
			if aff > bestAff {
				bestI, bestJ, bestAff = i, j, aff
			}
		}
	}
	return trees[bestI], trees[bestJ]
}

func mergeAffinity(a, b dz.Set) int {
	best := 0
	for _, x := range a {
		for _, y := range b {
			if l := x.CommonPrefix(y).Len(); l > best {
				best = l
			}
		}
	}
	return best
}

// mergeTrees folds t2 into t1: DZ sets union (and canonicalise into
// coarser subspaces where siblings meet), publisher/subscriber overlaps
// are recomputed against the merged set, and all paths of both trees are
// rebuilt on t1's spanning tree.
func (c *Controller) mergeTrees(t1, t2 *tree, ch *changeSet, rep *ReconfigReport) error {
	c.dropTreePaths(t1, ch)
	c.dropTreePaths(t2, ch)

	// Re-index under the merged set: members may coarsen when sibling
	// subspaces from the two trees meet, so remove-then-add is required.
	c.treeIdx.remove(t1.set)
	c.treeIdx.remove(t2.set)
	merged := t1.set.Union(t2.set)
	t1.set = merged
	c.treeIdx.add(t1.id, merged)

	// Union memberships.
	for pid := range t2.pubs {
		if p, ok := c.pubs[pid]; ok {
			p.trees.remove(t2.id)
			p.trees.add(t1.id)
		}
		if _, ok := t1.pubs[pid]; !ok {
			t1.pubs[pid] = nil
		}
	}
	for sid := range t2.subs {
		if s, ok := c.subs[sid]; ok {
			s.trees.remove(t2.id)
			s.trees.add(t1.id)
		}
		if _, ok := t1.subs[sid]; !ok {
			t1.subs[sid] = nil
		}
	}
	delete(c.trees, t2.id)

	// Recompute overlaps against the merged DZ set.
	for pid := range t1.pubs {
		t1.pubs[pid] = c.pubs[pid].adv.Intersect(merged)
	}
	for sid := range t1.subs {
		t1.subs[sid] = c.subs[sid].sub.Intersect(merged)
	}

	if err := c.establishTreePaths(t1, ch, rep); err != nil {
		return err
	}
	c.inst.treesMerged.Inc()
	c.inst.treeDz.Delete(t2.id)
	c.inst.treeDz.With(t1.id).Set(int64(len(t1.set)))
	rep.TreesMerged++
	if sp := c.span; sp != nil {
		sp.Event("trees merged", "into", treeLabel(t1.id), "from", treeLabel(t2.id), "dz", t1.set.String())
	}
	return nil
}

// includeFunc returns the node filter for spanning trees of this
// controller's partition.
func (c *Controller) includeFunc() func(topo.NodeID) bool {
	if c.partition == AnyPartition {
		return nil
	}
	p := c.partition
	return func(n topo.NodeID) bool { return c.g.Partition(n) == p }
}

// sortedTrees returns the trees ordered by ID for deterministic iteration.
func (c *Controller) sortedTrees() []*tree {
	out := make([]*tree, 0, len(c.trees))
	for _, t := range c.trees {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// RebuildTrees recomputes every dissemination tree's spanning tree over
// the current topology and reinstalls all publisher→subscriber paths. The
// controller calls it after a topology change (e.g. a link failure): the
// spanning trees avoid failed links and the flow diff moves exactly the
// affected paths — the controller-side reaction to network dynamics the
// paper's conclusion names as follow-up work.
func (c *Controller) RebuildTrees() (rep ReconfigReport, err error) {
	sp, start := c.beginOp(opRebuildTrees, func() string { return "" })
	defer func() { c.endOp(opRebuildTrees, sp, start, &rep, err) }()
	c.resetActionSets()
	ch := newChangeSet()
	defer c.contribs.apply(ch) // a failure before refresh keeps tries and branches in step
	for _, t := range c.sortedTrees() {
		span, err := c.g.ShortestPathTree(t.root, c.includeFunc())
		if err != nil {
			return rep, fmt.Errorf("core: rebuild tree %d: %w", t.id, err)
		}
		c.dropTreePaths(t, ch)
		t.setSpan(span)
		if err := c.establishTreePaths(t, ch, &rep); err != nil {
			return rep, err
		}
	}
	if err := c.refresh(ch, &rep); err != nil {
		return rep, err
	}
	if err := c.journalOp(wire.OpReconfigure, "", endpoint{}, nil); err != nil {
		return rep, err
	}
	return rep, nil
}
