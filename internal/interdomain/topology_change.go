package interdomain

import (
	"errors"
	"fmt"
	"maps"

	"pleroma/internal/dz"
	"pleroma/internal/sortutil"
)

// HandleTopologyChange reacts to link failures or repairs: the fabric
// tears down every virtual replica, re-discovers the border ports (failed
// links drop the LLDP probes, so vanished adjacencies disappear on their
// own), rebuilds the partition spanning tree, lets every controller
// recompute its intra-partition trees, and finally re-propagates all
// advertisements and subscriptions in their original arrival order.
//
// With a redundant partition graph (e.g. a ring of partitions) traffic
// therefore survives the loss of a border link: the partition tree grows
// around the failure.
//
// The teardown phase is best-effort: a replica whose controller rejects
// the removal (e.g. a switch went away with the link) must not leave the
// fabric half-dismantled, because step 2 resets the bookkeeping the
// replica maps mirror either way. Teardown errors are collected and
// joined into the returned error after the rebuild has been attempted in
// full, and origins are processed in sorted order so a multi-error is
// deterministic.
func (f *Fabric) HandleTopologyChange() error {
	var errs []error

	// 1. Tear down all virtual replicas in every partition.
	for _, origin := range sortutil.Keys(f.advReplicas) {
		for _, r := range f.advReplicas[origin] {
			if _, err := f.parts[r.part].ctl.Unadvertise(r.id); err != nil {
				errs = append(errs, fmt.Errorf("interdomain: teardown adv replica %q: %w", r.id, err))
			}
		}
		delete(f.advReplicas, origin)
	}
	for _, origin := range sortutil.Keys(f.subReplicas) {
		for _, r := range f.subReplicas[origin] {
			if _, err := f.parts[r.part].ctl.Unsubscribe(r.id); err != nil {
				errs = append(errs, fmt.Errorf("interdomain: teardown sub replica %q: %w", r.id, err))
			}
		}
		delete(f.subReplicas, origin)
	}

	// 2. Reset inter-domain bookkeeping; local clients stay registered.
	for _, p := range f.order {
		ps := f.parts[p]
		ps.borders = make(map[int][]BorderPort)
		ps.extAdvs = nil
		ps.rcvdAdv = make(map[string]dz.Set)
		ps.rcvdSub = make(map[string]dz.Set)
		ps.fwdAdvByOrigin = make(map[int]map[string]dz.Set)
		ps.fwdSubByOrigin = make(map[int]map[string]dz.Set)
		ps.fwdAdvCover = make(map[int]*coverIndex)
		ps.fwdSubCover = make(map[int]*coverIndex)
		maps.Copy(ps.rcvdAdv, ps.localAdvs)
		maps.Copy(ps.rcvdSub, ps.localSubs)
	}

	// 3. Re-discover borders over the changed topology and rebuild the
	// partition spanning tree.
	if f.staticDiscovery {
		f.discoverBordersStatic()
	} else if err := f.discoverBordersLLDP(); err != nil {
		errs = append(errs, err)
		return errors.Join(errs...)
	}
	f.buildPartitionTree()

	// 4. Every controller recomputes its intra-partition trees and paths.
	for _, p := range f.order {
		if _, err := f.parts[p].ctl.RebuildTrees(); err != nil {
			errs = append(errs, fmt.Errorf("interdomain: rebuild partition %d: %w", p, err))
			return errors.Join(errs...)
		}
	}

	// 5. Re-propagate all requests along the new partition tree.
	for _, id := range inArrivalOrder(f.advHome) {
		home := f.advHome[id].part
		f.forwardAdv(home, id, f.parts[home].localAdvs[id], home)
	}
	for _, id := range inArrivalOrder(f.subHome) {
		home := f.subHome[id].part
		f.forwardSub(home, id, f.parts[home].localSubs[id], home)
	}
	return errors.Join(errs...)
}
