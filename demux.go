package pleroma

import (
	"slices"

	"pleroma/internal/dz"
)

// hostDemux is one end host's share of the subscription state: the
// subscriptions registered on it and the prefix index that turns an
// arriving packet into the subscriptions it is for.
//
// The index is a pure derivation of the (host, set) pairs of subs — every
// member of every local subscription's truncated dz set is a key of byDz —
// and is written only through addSet and removeSet. Expressions pack into
// keys losslessly up to dz.MaxKeyBits, the dz capacity of the IPv6
// embedding, so nothing that can be a flow match or an event address is cut
// short; longer members share the key of their first MaxKeyBits bits.
type hostDemux struct {
	// subs holds the host's subscriptions; a subscription's pos is its slot
	// here, kept current under Unsubscribe's swap-remove. Handlers fire in
	// slot order.
	subs []*subState
	// byDz maps a dz to the head of the chain of subscriptions having it in
	// their set.
	byDz dz.Trie[*demuxEntry]
	// matches is the scratch list lookup fills. Per host, not per System:
	// with WithShards(n) dispatch runs concurrently on the shard workers,
	// each host owned by exactly one of them.
	matches []*subState
}

// demuxEntry links one subscription into the chain of one dz. The entries
// of a subscription are one block (subState.entries), parallel to its set.
type demuxEntry struct {
	sub        *subState
	prev, next *demuxEntry
}

// attach registers st in the host's last slot and indexes its set.
func (h *hostDemux) attach(st *subState) {
	st.pos = len(h.subs)
	h.subs = append(h.subs, st)
	h.addSet(st)
}

// detach drops st from the index and swap-removes it from the list; pos -1
// marks it gone for a dispatch that collected it before a handler
// unsubscribed it.
func (h *hostDemux) detach(st *subState) {
	h.removeSet(st)
	n := len(h.subs) - 1
	last := h.subs[n]
	h.subs[st.pos], last.pos = last, st.pos
	h.subs[n] = nil
	h.subs = h.subs[:n]
	st.pos = -1
}

// addSet indexes st under every member of its set. It costs one entry
// block per subscription plus the trie nodes of members not yet stored.
func (h *hostDemux) addSet(st *subState) {
	st.entries = make([]demuxEntry, len(st.set))
	for i, e := range st.set {
		ent := &st.entries[i]
		ent.sub = st
		k, _ := dz.KeyOf(e)
		h.byDz.Update(k, func(head *demuxEntry, ok bool) (*demuxEntry, bool) {
			if ok {
				ent.next, head.prev = head, ent
			}
			return ent, true
		})
	}
}

// removeSet undoes addSet; it must run while st.set is still the set that
// was added. A chain's head lives in the trie, so unlinking it replaces the
// stored value in place and only an emptied chain deletes the key.
func (h *hostDemux) removeSet(st *subState) {
	for i, e := range st.set {
		ent := &st.entries[i]
		if ent.next != nil {
			ent.next.prev = ent.prev
		}
		if ent.prev != nil {
			ent.prev.next = ent.next
			continue
		}
		k, _ := dz.KeyOf(e)
		h.byDz.Update(k, func(*demuxEntry, bool) (*demuxEntry, bool) {
			return ent.next, ent.next != nil
		})
	}
	st.entries = nil
}

// lookup returns the subscriptions whose set overlaps k — exactly those
// Set.Overlaps accepts — in slot order, each once, and the number of chain
// entries it visited. Stored dz that cover k are the common case (an event
// is encoded at least as long as any subscription member); stored dz that k
// covers are met only by packets shorter than the index space, i.e. in
// flight across a re-index or injected below the facade, and a set can have
// several of them, hence the de-duplication. One trie descent, O(|k| +
// matches), no allocation once matches has grown. The result aliases
// h.matches.
func (h *hostDemux) lookup(k dz.Key) (matches []*subState, visited int) {
	h.matches = h.matches[:0]
	collect := func(_ dz.Key, ent *demuxEntry) bool {
		for ; ent != nil; ent = ent.next {
			h.matches = append(h.matches, ent.sub)
		}
		return true
	}
	h.byDz.VisitOverlaps(k, collect)
	visited = len(h.matches)
	slices.SortFunc(h.matches, func(a, b *subState) int { return a.pos - b.pos })
	h.matches = slices.Compact(h.matches)
	return h.matches, visited
}
