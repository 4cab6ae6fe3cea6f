package pleroma

import (
	"slices"

	"pleroma/internal/dz"
)

// hostDemux is one end host's share of the subscription state: the
// subscriptions registered on it, the prefix index that turns an arriving
// packet into the subscriptions it is for, and — dense, so that a packet
// visits no per-subscription heap object — what dispatch reads of each match.
//
// A subscription on the host owns a cell, a small integer stable for its
// lifetime and recycled afterwards. Everything dispatch needs of a match is
// in the cell's record (cells) and its rectangle (rects), each field with one
// writer: attach and detach for a cell's whole life, setRect for a rectangle
// (Resubscribe), setHandler for a sink (reconnect rebind). The rectangle and
// the handler live nowhere else.
//
// The index is a pure derivation of the (cell, set) pairs of subs — every
// member of every local subscription's truncated dz set is a key of byDz —
// and is written only through addSet and removeSet. Expressions pack into
// keys losslessly up to dz.MaxKeyBits, the dz capacity of the IPv6
// embedding, so nothing that can be a flow match or an event address is cut
// short; longer members share the key of their first MaxKeyBits bits.
//
// With WithShards(n) dispatch runs concurrently on the shard workers, each
// host owned by exactly one of them: every field here is per host, the
// delivery counters included.
type hostDemux struct {
	// deliveries and falsePositives count the host's handler deliveries and
	// those of them that do not match their subscription exactly; dispatch
	// is their one writer and System.Stats sums them.
	deliveries, falsePositives uint64

	// subs holds the host's subscriptions; cells[st.cell].slot is a
	// subscription's slot here, kept current under Unsubscribe's
	// swap-remove. Handlers fire in slot order.
	subs []*subState

	// dims is the schema's dimension count, the stride of rects.
	dims int
	// cells holds, per cell, its subscription's slot and sink.
	cells []demuxCell
	// rects holds cell c's full-space rectangle at [c*dims, (c+1)*dims).
	rects []dz.Interval

	// free lists the cells attach may hand out. A cell released while a
	// dispatch on this host is running (depth > 0) waits in limbo instead,
	// until the outermost dispatch returns: that dispatch, or one nested in
	// it by a handler driving the simulation, may hold the cell in its match
	// list, where slot -1 is what says "unsubscribed before its turn" —
	// a reused cell would fire its new owner for a packet that arrived
	// before it subscribed.
	free, limbo []int32
	depth       int

	// byDz maps a dz to the cells having it in their set. The posting is
	// stored inside the trie's value slab; links holds the overflow of the
	// dz several subscriptions share, as chains threaded through one dense
	// array, and freeLink heads the chain of its recycled slots.
	byDz     dz.Trie[posting]
	links    []link
	freeLink int32

	// postings and matches are the scratch lists lookup fills: the postings
	// the trie holds for a packet's key, then their cells.
	postings []posting
	matches  []uint64
}

// demuxCell is one cell's record: the subscription's slot in hostDemux.subs
// (-1 while the cell is free or in limbo) and its sink. The rectangle is in
// hostDemux.rects, read only for a packet the cell matched.
type demuxCell struct {
	slot int32
	sink sink
}

// sink is where a matched packet goes: the handler (nil for a subscription
// without one) and the id deliveries are labelled with.
type sink struct {
	handler func(Delivery)
	id      string
}

// posting is the cells indexed under one dz: first inline and, where several
// subscriptions share the dz, the rest as a chain starting at
// hostDemux.links[more-1] (more == 0: none). A set with two members on one
// key holds two places in the posting.
type posting struct {
	first, more int32
}

// link is one overflow cell of a posting; next-1 indexes the following link
// of the chain (0: the last), or of the free chain once released.
type link struct {
	cell, next int32
}

// attach registers st in the host's last slot, gives it a cell holding rect
// and handler, and indexes its set.
func (h *hostDemux) attach(st *subState, rect dz.Rect, handler func(Delivery)) {
	if n := len(h.free); n > 0 {
		st.cell = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		st.cell = int32(len(h.cells))
		h.cells = append(h.cells, demuxCell{})
		h.rects = append(h.rects, make([]dz.Interval, h.dims)...)
	}
	c := &h.cells[st.cell]
	c.slot, c.sink = int32(len(h.subs)), sink{handler: handler, id: st.id}
	h.subs = append(h.subs, st)
	h.setRect(st, rect)
	h.addSet(st)
}

// detach drops st from the index, swap-removes it from the list and releases
// its cell; slot -1 marks it gone for a dispatch that collected it before a
// handler unsubscribed it.
func (h *hostDemux) detach(st *subState) {
	h.removeSet(st)
	n := len(h.subs) - 1
	last, pos := h.subs[n], h.cells[st.cell].slot
	h.subs[pos], h.cells[last.cell].slot = last, pos
	h.subs[n] = nil
	h.subs = h.subs[:n]
	h.cells[st.cell].slot, h.cells[st.cell].sink = -1, sink{}
	if h.depth > 0 {
		h.limbo = append(h.limbo, st.cell)
	} else {
		h.free = append(h.free, st.cell)
	}
}

// enter and leave bracket a dispatch on the host. A handler that panics out
// of dispatch leaves depth raised; cells released from then on stay in limbo
// — a leak, never a wrong delivery.
func (h *hostDemux) enter() { h.depth++ }

func (h *hostDemux) leave() {
	h.depth--
	if h.depth == 0 && len(h.limbo) > 0 {
		h.free = append(h.free, h.limbo...)
		h.limbo = h.limbo[:0]
	}
}

// rect returns a cell's full-space rectangle: a view, valid until the next
// attach on the host.
func (h *hostDemux) rect(cell int32) dz.Rect {
	at := int(cell) * h.dims
	return h.rects[at : at+h.dims : at+h.dims]
}

// setRect is the one writer of a cell's rectangle.
func (h *hostDemux) setRect(st *subState, rect dz.Rect) {
	copy(h.rect(st.cell), rect)
}

// setHandler is the one writer of a live cell's handler.
func (h *hostDemux) setHandler(st *subState, handler func(Delivery)) {
	h.cells[st.cell].sink.handler = handler
}

// addSet indexes st's cell under every member of its set. It costs the trie
// nodes of members not yet stored, and a link for a dz another subscription
// already has.
func (h *hostDemux) addSet(st *subState) {
	add := func(p posting, ok bool) (posting, bool) {
		if !ok {
			return posting{first: st.cell}, true
		}
		at := h.freeLink
		if at != 0 {
			h.freeLink = h.links[at-1].next
		} else {
			h.links = append(h.links, link{})
			at = int32(len(h.links))
		}
		h.links[at-1] = link{cell: st.cell, next: p.more}
		p.more = at
		return p, true
	}
	for _, e := range st.set {
		k, _ := dz.KeyOf(e)
		h.byDz.Update(k, add)
	}
}

// removeSet undoes addSet; it must run while st.set is still the set that
// was added. Only an emptied posting deletes the key.
func (h *hostDemux) removeSet(st *subState) {
	remove := func(p posting, _ bool) (posting, bool) {
		// at is the link that leaves the chain, through *from.
		from, at := &p.more, p.more
		if p.first != st.cell {
			for h.links[at-1].cell != st.cell {
				from = &h.links[at-1].next
				at = *from
			}
		} else if at == 0 {
			return posting{}, false // the dz was st's alone
		} else {
			p.first = h.links[at-1].cell
		}
		*from = h.links[at-1].next
		h.links[at-1].next, h.freeLink = h.freeLink, at
		return p, true
	}
	for _, e := range st.set {
		k, _ := dz.KeyOf(e)
		h.byDz.Update(k, remove)
	}
}

// lookup returns the cells whose set overlaps k — exactly the subscriptions
// Set.Overlaps accepts — in slot order, each once, and the number of cells
// it collected before de-duplication. A match is its cell in the low half of
// the word under the slot it had at collection in the high half, so ordering
// is a sort of integers and reads nothing per subscription. Stored dz that
// cover k are the common case (an event is encoded at least as long as any
// subscription member); stored dz that k covers are met only by packets
// shorter than the index space, i.e. in flight across a re-index or injected
// below the facade, and a set can have several of them, hence the
// de-duplication, which a single cell does not need. One trie descent
// (AppendOverlaps, into the host's postings scratch: no key built, no
// callback), O(|k| + matches), no allocation once the scratch lists have
// grown. The result aliases h.matches.
func (h *hostDemux) lookup(k dz.Key) (matches []uint64, visited int) {
	h.postings = h.byDz.AppendOverlaps(h.postings[:0], k)
	m := h.matches[:0]
	for _, p := range h.postings {
		m = append(m, uint64(h.cells[p.first].slot)<<32|uint64(p.first))
		for at := p.more; at != 0; {
			l := h.links[at-1]
			m = append(m, uint64(h.cells[l.cell].slot)<<32|uint64(l.cell))
			at = l.next
		}
	}
	visited = len(m)
	if len(m) > 1 {
		slices.Sort(m)
		m = slices.Compact(m)
	}
	h.matches = m
	return m, visited
}
