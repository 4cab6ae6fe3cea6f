package core

import (
	"fmt"
	"slices"

	"pleroma/internal/dz"
)

// treeIndex resolves which dissemination trees own a subspace. Tree DZ sets
// are pairwise disjoint by construction — createTree only ever claims the
// uncovered remainder of an advertisement, and merges fold one tree's set
// into another — so every canonical set member belongs to exactly one tree
// and the index is a plain prefix map: packed member → owning tree.
//
// Every member packs losslessly: admission (Controller.admit) and snapshot
// restore refuse a set with a member longer than dz.MaxKeyBits before it
// reaches a tree. The zero value is ready for use; like the rest of the
// controller it belongs to the controller's owner.
type treeIndex struct {
	trie dz.Trie[TreeID]
	ids  []TreeID // overlapping's result, reused by the next call
}

// memberKey packs a tree-set member. A member too long for a key got past
// admission, which is a bug, not an input.
func memberKey(e dz.Expr) dz.Key {
	k, ok := dz.KeyOf(e)
	if !ok {
		panic(fmt.Sprintf("core: tree set member of %d bits exceeds %d", e.Len(), dz.MaxKeyBits))
	}
	return k
}

// add indexes every member of a tree's canonical DZ set.
func (x *treeIndex) add(id TreeID, set dz.Set) {
	for _, e := range set {
		x.trie.Insert(memberKey(e), id)
	}
}

// remove drops every member of a tree's canonical DZ set. Callers must pass
// the exact set the tree was indexed with (remove before mutating t.set).
func (x *treeIndex) remove(set dz.Set) {
	for _, e := range set {
		x.trie.Delete(memberKey(e))
	}
}

// overlapping returns the IDs of all trees whose DZ set overlaps dzi (a
// member of an admitted set), in ascending order: one trie descent for
// members covering dzi, one subtree walk for members covered by it. The
// list is the index's scratch, valid until the next call.
func (x *treeIndex) overlapping(dzi dz.Expr) []TreeID {
	ids := x.ids[:0]
	x.trie.VisitOverlaps(memberKey(dzi), func(_ dz.Key, id TreeID) bool {
		ids = append(ids, id)
		return true
	})
	slices.Sort(ids)
	x.ids = ids
	return slices.Compact(ids) // dzi may cover several members of one tree
}

// first returns one tree whose DZ set overlaps k — the allocation-free
// single-match variant of overlapping for per-publish lookups (an event's
// key is a point, so at most one disjoint tree set can own it).
func (x *treeIndex) first(k dz.Key) (found TreeID, ok bool) {
	x.trie.VisitOverlaps(k, func(_ dz.Key, id TreeID) bool {
		found, ok = id, true
		return false
	})
	return found, ok
}
