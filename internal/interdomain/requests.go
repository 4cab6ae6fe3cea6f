package interdomain

import (
	"fmt"
	"slices"

	"pleroma/internal/dz"
	"pleroma/internal/sortutil"
	"pleroma/internal/topo"
)

// Advertise processes an advertisement from a host: the local controller
// reconfigures its partition, then the advertisement floods to all other
// partitions (Section 4.2), suppressed where a covering advertisement was
// already forwarded. Existing subscriptions in remote partitions follow
// the new advertisement's reverse path back towards the publisher.
func (f *Fabric) Advertise(id string, host topo.NodeID, set dz.Set) error {
	home, err := f.homePartition(host)
	if err != nil {
		return err
	}
	if _, dup := f.advHome[id]; dup {
		return fmt.Errorf("interdomain: duplicate advertisement id %q", id)
	}
	s := f.parts[home]
	s.load.Internal++
	if _, err := s.ctl.Advertise(id, host, set); err != nil {
		return fmt.Errorf("interdomain: local advertise: %w", err)
	}
	f.arrive(f.advHome, id, home)
	s.localAdvs[id] = set
	// Seed the home partition's received-set so the flood dies when it
	// comes back around a cycle of partitions.
	s.rcvdAdv[id] = set
	f.forwardAdv(home, id, set, home)
	return nil
}

// Subscribe processes a subscription from a host: the local controller
// installs paths from local and virtual publishers, then the subscription
// follows the reverse paths of every overlapping external advertisement.
func (f *Fabric) Subscribe(id string, host topo.NodeID, set dz.Set) error {
	home, err := f.homePartition(host)
	if err != nil {
		return err
	}
	if _, dup := f.subHome[id]; dup {
		return fmt.Errorf("interdomain: duplicate subscription id %q", id)
	}
	s := f.parts[home]
	s.load.Internal++
	if _, err := s.ctl.Subscribe(id, host, set); err != nil {
		return fmt.Errorf("interdomain: local subscribe: %w", err)
	}
	f.arrive(f.subHome, id, home)
	s.localSubs[id] = set
	s.rcvdSub[id] = set
	f.forwardSub(home, id, set, home)
	return nil
}

// Unsubscribe removes a subscription everywhere. Because covering-based
// suppression may have let this subscription carry the inter-partition
// paths of finer ones, the fabric tears down all virtual subscriber
// replicas and re-propagates the surviving subscriptions.
func (f *Fabric) Unsubscribe(id string) error {
	home, ok := f.subHome[id]
	if !ok {
		return fmt.Errorf("interdomain: unknown subscription id %q", id)
	}
	s := f.parts[home.part]
	s.load.Internal++
	if _, err := s.ctl.Unsubscribe(id); err != nil {
		return fmt.Errorf("interdomain: local unsubscribe: %w", err)
	}
	delete(s.localSubs, id)
	delete(s.rcvdSub, id)
	delete(f.subHome, id)
	return f.rebuildSubPropagation()
}

// Unadvertise removes an advertisement everywhere and re-propagates the
// remaining subscriptions (their reverse paths may have changed).
func (f *Fabric) Unadvertise(id string) error {
	home, ok := f.advHome[id]
	if !ok {
		return fmt.Errorf("interdomain: unknown advertisement id %q", id)
	}
	s := f.parts[home.part]
	s.load.Internal++
	if _, err := s.ctl.Unadvertise(id); err != nil {
		return fmt.Errorf("interdomain: local unadvertise: %w", err)
	}
	delete(s.localAdvs, id)
	delete(f.advHome, id)

	// Tear down the advertisement's virtual replicas and its bookkeeping.
	for _, r := range f.advReplicas[id] {
		rs := f.parts[r.part]
		rs.load.External++
		f.messagesSent++
		f.obsMessages.Inc()
		if _, err := rs.ctl.Unadvertise(r.id); err != nil {
			return fmt.Errorf("interdomain: remove adv replica %q in partition %d: %w", r.id, r.part, err)
		}
	}
	delete(f.advReplicas, id)
	for _, p := range f.order {
		ps := f.parts[p]
		delete(ps.rcvdAdv, id)
		ps.extAdvs = slices.DeleteFunc(ps.extAdvs, func(ea *extAdv) bool { return ea.origin == id })
		for _, nb := range sortutil.Keys(ps.fwdAdvByOrigin) {
			delete(ps.fwdAdvByOrigin[nb], id)
			// The removed origin's subspaces leave the forwarded region, so
			// the suppression index is rebuilt from the surviving origins.
			cover(ps.fwdAdvCover, nb).reset(unionOrigins(ps.fwdAdvByOrigin[nb]))
		}
	}
	return f.rebuildSubPropagation()
}

// rebuildSubPropagation removes every virtual subscriber replica and
// re-runs the inter-partition forwarding of all surviving subscriptions in
// their original arrival order. A fabric of one partition has no neighbour,
// replica or cover index for any of that to affect.
func (f *Fabric) rebuildSubPropagation() error {
	if len(f.parts) < 2 {
		return nil
	}
	for _, origin := range sortutil.Keys(f.subReplicas) {
		for _, r := range f.subReplicas[origin] {
			rs := f.parts[r.part]
			rs.load.External++
			f.messagesSent++
			f.obsMessages.Inc()
			if _, err := rs.ctl.Unsubscribe(r.id); err != nil {
				return fmt.Errorf("interdomain: remove sub replica %q in partition %d: %w", r.id, r.part, err)
			}
		}
		delete(f.subReplicas, origin)
	}
	for _, p := range f.order {
		ps := f.parts[p]
		ps.rcvdSub = make(map[string]dz.Set)
		ps.fwdSubByOrigin = make(map[int]map[string]dz.Set)
		ps.fwdSubCover = make(map[int]*coverIndex)
	}
	for _, origin := range inArrivalOrder(f.subHome) {
		home := f.subHome[origin].part
		set := f.parts[home].localSubs[origin]
		f.parts[home].rcvdSub[origin] = set
		f.forwardSub(home, origin, set, home)
	}
	return nil
}

// HomePartition resolves the partition a host belongs to — the exported
// query the facade uses to label delivery latency by publisher partition.
func (f *Fabric) HomePartition(host topo.NodeID) (int, error) {
	return f.homePartition(host)
}

// homePartition resolves the partition a host belongs to.
func (f *Fabric) homePartition(host topo.NodeID) (int, error) {
	n, err := f.g.Node(host)
	if err != nil {
		return 0, err
	}
	if n.Kind != topo.KindHost {
		return 0, fmt.Errorf("interdomain: node %d (%s) is not a host", host, n.Name)
	}
	if _, ok := f.parts[n.Partition]; !ok {
		return 0, fmt.Errorf("interdomain: host %d in unmanaged partition %d", host, n.Partition)
	}
	return n.Partition, nil
}

// forwardAdv floods an advertisement from partition `from` to all its
// neighbours except `exclude`.
func (f *Fabric) forwardAdv(from int, origin string, set dz.Set, exclude int) {
	s := f.parts[from]
	for _, nb := range f.TreeNeighbors(from) {
		if nb == exclude {
			continue
		}
		if f.covering && cover(s.fwdAdvCover, nb).covers(set) {
			f.suppressed++
			f.obsSuppressed.Inc()
			continue
		}
		addOrigin(s.fwdAdvByOrigin, nb, origin, set)
		cover(s.fwdAdvCover, nb).add(set)
		f.messagesSent++
		f.obsMessages.Inc()
		f.receiveExternalAdv(nb, from, origin, set)
	}
}

// receiveExternalAdv handles an advertisement arriving at partition `at`
// from neighbouring partition `from`: the uncovered part is registered as
// a virtual publisher at the canonical border switch, flooded onward, and
// the subscriptions already known at `at` chase it back towards `from`.
func (f *Fabric) receiveExternalAdv(at, from int, origin string, set dz.Set) {
	s := f.parts[at]
	s.load.External++
	fresh := set.Subtract(s.rcvdAdv[origin])
	if fresh.IsEmpty() {
		return // duplicate flooding through a cycle dies out here
	}
	s.rcvdAdv[origin] = s.rcvdAdv[origin].Union(fresh)

	border, ok := f.canonicalBorder(at, from)
	if !ok {
		return
	}
	s.vseq++
	vid := fmt.Sprintf("xadv:%s#%d", origin, s.vseq)
	if _, err := s.ctl.AdvertiseVirtual(vid, border.LocalSwitch, border.LocalPort, fresh); err == nil {
		f.advReplicas[origin] = append(f.advReplicas[origin], replica{part: at, id: vid})
	}
	s.extAdvs = append(s.extAdvs, &extAdv{origin: origin, set: fresh, fromPart: from})

	f.forwardAdv(at, origin, fresh, from)

	// Reverse-path maintenance: subscriptions known here (local or
	// replicated) that overlap the fresh advertisement must follow it back.
	f.backPropagateSubs(at, from, fresh)
}

// backPropagateSubs forwards every subscription known at partition `at`
// that overlaps advSet one hop towards `toward` (the direction the fresh
// advertisement came from).
func (f *Fabric) backPropagateSubs(at, toward int, advSet dz.Set) {
	s := f.parts[at]
	type known struct {
		origin string
		set    dz.Set
	}
	var subs []known
	for _, origin := range sortutil.Keys(s.localSubs) {
		subs = append(subs, known{origin, s.localSubs[origin]})
	}
	for _, origin := range sortutil.Keys(s.rcvdSub) {
		subs = append(subs, known{origin, s.rcvdSub[origin]})
	}
	for _, k := range subs {
		ov := k.set.Intersect(advSet)
		if ov.IsEmpty() {
			continue
		}
		f.sendSubTo(at, toward, k.origin, ov)
	}
}

// forwardSub sends a subscription from partition `from` towards the
// sources of every overlapping external advertisement, except back to
// `exclude`.
func (f *Fabric) forwardSub(from int, origin string, set dz.Set, exclude int) {
	s := f.parts[from]
	targets := make(map[int]dz.Set)
	for _, ea := range s.extAdvs {
		if ea.fromPart == exclude {
			continue
		}
		ov := set.Intersect(ea.set)
		if ov.IsEmpty() {
			continue
		}
		targets[ea.fromPart] = targets[ea.fromPart].Union(ov)
	}
	nbs := make([]int, 0, len(targets))
	for nb := range targets {
		nbs = append(nbs, nb)
	}
	slices.Sort(nbs)
	for _, nb := range nbs {
		f.sendSubTo(from, nb, origin, targets[nb])
	}
}

// sendSubTo forwards one subscription to one neighbour, applying
// covering-based suppression.
func (f *Fabric) sendSubTo(from, nb int, origin string, set dz.Set) {
	s := f.parts[from]
	if f.covering && cover(s.fwdSubCover, nb).covers(set) {
		f.suppressed++
		f.obsSuppressed.Inc()
		return
	}
	addOrigin(s.fwdSubByOrigin, nb, origin, set)
	cover(s.fwdSubCover, nb).add(set)
	f.messagesSent++
	f.obsMessages.Inc()
	f.receiveExternalSub(nb, from, origin, set)
}

// receiveExternalSub handles a subscription arriving at partition `at`
// from neighbouring partition `from`: the uncovered part is registered as
// a virtual subscriber whose exit port crosses back towards `from`, and
// the subscription continues along the reverse advertisement paths.
func (f *Fabric) receiveExternalSub(at, from int, origin string, set dz.Set) {
	s := f.parts[at]
	s.load.External++
	fresh := set.Subtract(s.rcvdSub[origin])
	if fresh.IsEmpty() {
		return
	}
	s.rcvdSub[origin] = s.rcvdSub[origin].Union(fresh)

	border, ok := f.canonicalBorder(at, from)
	if !ok {
		return
	}
	s.vseq++
	vid := fmt.Sprintf("xsub:%s#%d", origin, s.vseq)
	if _, err := s.ctl.SubscribeVirtual(vid, border.LocalSwitch, border.LocalPort, fresh); err == nil {
		f.subReplicas[origin] = append(f.subReplicas[origin], replica{part: at, id: vid})
	}
	f.forwardSub(at, origin, fresh, from)
}

// canonicalBorder returns the agreed crossing between two partitions (the
// first border port in deterministic order). Both sides derive it from the
// same underlying links, so it is symmetric.
func (f *Fabric) canonicalBorder(at, neighbour int) (BorderPort, bool) {
	s := f.parts[at]
	bps := s.borders[neighbour]
	if len(bps) == 0 {
		return BorderPort{}, false
	}
	return bps[0], true
}

// unionOrigins re-unites the per-origin forwarded sets of one neighbour;
// used to rebuild a cover index after an origin is removed.
func unionOrigins(m map[string]dz.Set) dz.Set {
	var u dz.Set
	for _, set := range m {
		u = u.Union(set)
	}
	return u
}

func addOrigin(m map[int]map[string]dz.Set, nb int, origin string, set dz.Set) {
	inner := m[nb]
	if inner == nil {
		inner = make(map[string]dz.Set)
		m[nb] = inner
	}
	inner[origin] = inner[origin].Union(set)
}
