// Package openflow models the subset of the OpenFlow switch abstraction
// that PLEROMA relies on (Section 3.3.2): flow entries with an IPv6
// destination match field (a dz-expression embedded as a CIDR prefix), a
// priority order, and an instruction set that outputs on a set of ports and
// optionally rewrites the destination address on terminal switches.
//
// A Table emulates the TCAM: a lookup returns the single highest-priority
// matching entry, and FlowMod operations are counted so experiments can
// account for control traffic and reconfiguration cost. A table admits only
// flows whose priority is the length of their dz-expression — the priority
// the controller always installs at — so the highest-priority match is the
// longest matching prefix, and among flows of one expression the earliest
// installed wins. A flow's match travels and is stored as the packed dz.Key;
// the expression string is rendered only for a reader that asks (Flow.Expr).
package openflow

import (
	"cmp"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"pleroma/internal/dz"
	"pleroma/internal/ipmc"
)

// PortID is a switch-local port number. Port numbering starts at 1 as in
// OpenFlow; 0 is "no port".
type PortID int

// Action is one entry of a flow's instruction set: forward on a port,
// optionally rewriting the destination IP first (used on terminal switches
// to address the subscriber host directly, cf. Figure 3).
type Action struct {
	// OutPort is the port the packet is forwarded on.
	OutPort PortID
	// SetDest, when valid, replaces the packet's destination address
	// before output.
	SetDest netip.Addr
}

// FlowID identifies an installed flow within one table.
type FlowID uint64

// Flow is a single flow-table entry as the table's callers hand it in and
// read it back; the table itself keeps only its ID, Key and Actions (see
// Table).
type Flow struct {
	// ID is assigned by the table on installation; zero for new flows.
	ID FlowID
	// Key is the match field: the dz-expression packed, whose CIDR form is
	// ipmc.FromExpr(Key.Expr()). Every Key fits an address.
	Key dz.Key
	// Priority orders entries; higher wins. A table admits a flow only at
	// priority Key.Len(), so that longer (finer) subspaces match first.
	Priority int
	// Actions is the instruction set.
	Actions []Action
}

// NewFlow builds a flow for the given subspace, priority, and actions. The
// expression must fit an address (ipmc.KeyFromExpr); the priority is checked
// when a table is asked to install the flow.
func NewFlow(expr dz.Expr, priority int, actions ...Action) (Flow, error) {
	k, err := ipmc.KeyFromExpr(expr)
	if err != nil {
		return Flow{}, fmt.Errorf("openflow: %w", err)
	}
	return Flow{
		Key:      k,
		Priority: priority,
		Actions:  append([]Action(nil), actions...),
	}, nil
}

// Expr renders the match field as a dz-expression. It allocates the string:
// it is for readers that print or compare expressions, never for a table
// operation.
func (f Flow) Expr() dz.Expr { return f.Key.Expr() }

// OutPorts returns the sorted set of output ports of the flow.
func (f Flow) OutPorts() []PortID {
	ports := make([]PortID, 0, len(f.Actions))
	seen := make(map[PortID]bool, len(f.Actions))
	for _, a := range f.Actions {
		if !seen[a.OutPort] {
			seen[a.OutPort] = true
			ports = append(ports, a.OutPort)
		}
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	return ports
}

// HasPort reports whether the flow outputs on the given port.
func (f Flow) HasPort(p PortID) bool {
	for _, a := range f.Actions {
		if a.OutPort == p {
			return true
		}
	}
	return false
}

// Covers reports whether f covers o per Section 3.3.2: f's subspace covers
// o's subspace AND o's out ports are a subset of f's.
func (f Flow) Covers(o Flow) bool {
	if !f.Key.Covers(o.Key) {
		return false
	}
	for _, p := range o.OutPorts() {
		if !f.HasPort(p) {
			return false
		}
	}
	return true
}

// String renders the flow like the paper's figures: "100* > 2,3 :PO=1".
func (f Flow) String() string {
	ports := f.OutPorts()
	parts := make([]string, len(ports))
	for i, p := range ports {
		parts[i] = fmt.Sprintf("%d", p)
	}
	return fmt.Sprintf("%s* > %s :PO=%d", f.Expr(), strings.Join(parts, ","), f.Priority)
}

// ModStats counts FlowMod operations applied to a table; the controller
// experiments use these to quantify reconfiguration cost.
type ModStats struct {
	Adds    uint64
	Deletes uint64
	Mods    uint64
	// Batches counts AppendBatch invocations (each models one OpenFlow
	// bundle, i.e. one southbound round-trip regardless of op count).
	Batches uint64
}

// Total returns the total number of FlowMod messages.
func (s ModStats) Total() uint64 { return s.Adds + s.Deletes + s.Mods }

// Table is one switch's flow table.
//
// Lookups emulate a TCAM: the highest-priority matching entry wins. The
// table admits a flow only at priority |dz| — the PLEROMA invariant the
// controller always installs at; TryAdd, AppendBatch and Modify refuse any
// other priority with ErrPriorityMismatch and leave the table as it was.
// Under that rule the highest-priority match is the longest installed prefix
// of the destination, so the table has one lookup: a multi-bit trie
// (dz.Trie: 4 dz bits per node, nodes in one pointer-free array) over the
// packed dz bits of the match keys — O(|dz|/4) steps, no allocation and no
// write per lookup, mirroring the constant-time behaviour of hardware TCAMs
// that Figure 7(a) demonstrates.
//
// The table is laid out for the matcher, not for the installer. Flows are
// values in one slab (flows, a free slot's id zero, freed slots reused
// first); a flow is its ID, its match Key — the priority is the key's length
// and is not stored — and its instruction set. The trie's value is the bucket
// of one match key: the winning flow's slot and that flow's action list, so
// the forwarding path gets its answer from the trie's value slab and never
// loads a flow. Nothing is parsed or rendered on a write:
// a flow arrives with its key packed, and Flows, Get and Lookup build a Flow
// only for the caller that asks.
//
// There is one lookup and two spellings of its argument. LookupKey is the
// path form: the switch hop hands it the destination's dz bits already
// packed (netem packs them where a packet's Dst is written, not per hop) and
// ranges over the winner's actions in place. Lookup is the boundary form for
// whoever holds an address and wants the entry — tests, experiments, the
// benchmark's probe: it packs the address, runs the same lookup and copies
// the flow out.
//
// A Table takes no lock. Its one writer is the controller programming the
// switch, on the goroutine driving the system; its readers are the
// forwarding path — the same goroutine in single-engine mode, a shard
// worker under sharding, where a run's start and return (the coordinator's
// barrier) order the worker's lookups after every write made between runs.
// A punt handler runs between a switch's lookups, never inside one, and
// LookupKey's result stays valid across writes (see LookupKey).
type Table struct {
	// flows is the slab of installed flows; free lists its empty slots, and
	// slot finds a flow's slot by ID.
	flows  []entry
	free   []uint32
	slot   map[FlowID]uint32
	nextID FlowID
	stats  ModStats

	// trie is the table's one lookup index: one bucket per distinct match
	// key.
	trie dz.Trie[exprBucket]
	// shared holds, for the rare key several flows are installed under, the
	// slots of the flows that are not its bucket's winner, in no particular
	// order. Beside the trie, not in the bucket: every hop copies the bucket
	// out of the trie, and a slice header nothing on that path reads cost
	// tcp-pipe's one-flow tables more than the lookup saved.
	shared map[dz.Key][]uint32
	// capacity bounds the number of installed flows (the TCAM budget of
	// requirement 3 in the paper: vendors ship 40k–180k entries); zero
	// means unbounded.
	capacity int
	// sizeObserver, when set, is called with the new flow count after
	// every size change — observers must be cheap and must not call back
	// into the table. The observability layer uses it to drive per-switch
	// occupancy gauges from the ground truth.
	sizeObserver func(int)
}

// entry is one installed flow in the table's slab: its ID (zero: the slot is
// free), its match key and its instruction set.
type entry struct {
	key     dz.Key
	actions []Action
	id      FlowID
}

// exprBucket is what the trie stores for one exact match key: the slot of
// the lookup winner — the lowest FlowID (earliest installed) of the flows
// installed under the key; the others are in Table.shared — and its
// instruction set, a mirror of the winner's entry.actions so that the
// forwarding path goes from the trie's value slab straight to the action list
// without loading the entry. index, unindex and Modify keep both current.
type exprBucket struct {
	flow    uint32
	actions []Action
}

// ErrTableFull is returned (wrapped) when an Add exceeds the configured
// TCAM capacity.
var ErrTableFull = errors.New("openflow: flow table full")

// ErrPriorityMismatch is returned (wrapped) when a flow would be installed
// at a priority other than the length of its dz-expression.
var ErrPriorityMismatch = errors.New("openflow: flow priority is not its dz length")

// admit is the table's admission rule: a flow is installed only at priority
// |k|. Every key fits an address, so that is all there is to check.
func admit(k dz.Key, priority int) error {
	if priority != k.Len() {
		return fmt.Errorf("%w: priority %d for %q", ErrPriorityMismatch, priority, k.Expr())
	}
	return nil
}

// NewTable returns an empty flow table. It allocates nothing else before
// the first flow: most switches of a deployment never get one.
func NewTable() *Table { return new(Table) }

// Len returns the number of installed flows.
func (t *Table) Len() int { return len(t.slot) }

// Stats returns the FlowMod counters.
func (t *Table) Stats() ModStats {
	return t.stats
}

// SetCapacity bounds the table to n entries (0 = unbounded). Existing
// entries above the new capacity stay installed; only future Adds are
// refused.
func (t *Table) SetCapacity(n int) {
	t.capacity = n
}

// Capacity returns the configured TCAM budget (0 = unbounded).
func (t *Table) Capacity() int {
	return t.capacity
}

// SetSizeObserver registers fn to be called with the flow count after
// every size change (and once immediately with the current count). fn
// must be cheap, non-blocking, and must not call table methods. A nil fn
// removes the observer.
func (t *Table) SetSizeObserver(fn func(int)) {
	t.sizeObserver = fn
	if fn != nil {
		fn(t.Len())
	}
}

// Add installs a flow and returns its assigned ID.
func (t *Table) Add(f Flow) FlowID {
	id, _ := t.TryAdd(f)
	return id
}

// TryAdd installs a flow, enforcing the admission rule and the TCAM
// capacity. A flow whose priority is not |dz| gets ErrPriorityMismatch, a
// full table ErrTableFull; either way nothing is installed. The table keeps
// the flow's action list, and neither side writes it afterwards — the
// controller hands every flow of a port set one shared, immutable list.
func (t *Table) TryAdd(f Flow) (FlowID, error) {
	if err := admit(f.Key, f.Priority); err != nil {
		return 0, err
	}
	if t.capacity > 0 && t.Len() >= t.capacity {
		return 0, fmt.Errorf("%w: %d entries installed", ErrTableFull, t.Len())
	}
	t.nextID++
	e := entry{key: f.Key, actions: f.Actions, id: t.nextID}
	var at uint32
	if n := len(t.free); n > 0 {
		at, t.free = t.free[n-1], t.free[:n-1]
		t.flows[at] = e
	} else {
		at = uint32(len(t.flows))
		t.flows = append(t.flows, e)
	}
	if t.slot == nil {
		t.slot = make(map[FlowID]uint32)
	}
	t.slot[e.id] = at
	t.index(at)
	t.stats.Adds++
	if t.sizeObserver != nil {
		t.sizeObserver(t.Len())
	}
	return e.id, nil
}

// Delete removes the flow with the given ID. It reports whether a flow was
// removed.
func (t *Table) Delete(id FlowID) bool {
	at, ok := t.slot[id]
	if !ok {
		return false
	}
	t.unindex(at)
	t.flows[at] = entry{}
	t.free = append(t.free, at)
	delete(t.slot, id)
	t.stats.Deletes++
	if t.sizeObserver != nil {
		t.sizeObserver(t.Len())
	}
	return true
}

// Modify replaces the actions and priority of an installed flow. It fails,
// and changes nothing, when no flow has the ID or the priority is not the
// flow's |dz|. The table keeps the caller's list, as TryAdd keeps an added
// flow's, and drops the old one without writing it, so one an earlier
// LookupKey handed out stays as it was.
func (t *Table) Modify(id FlowID, priority int, actions []Action) error {
	at, ok := t.slot[id]
	if !ok {
		return fmt.Errorf("no flow %d", id)
	}
	e := &t.flows[at]
	if err := admit(e.key, priority); err != nil {
		return err
	}
	e.actions = actions
	t.trie.Update(e.key, func(b exprBucket, _ bool) (exprBucket, bool) {
		if b.flow == at {
			b.actions = actions
		}
		return b, true
	})
	t.stats.Mods++
	return nil
}

// index files the newly added flow in slot at under its key's bucket. The
// newest flow has the highest ID, so an existing winner stays.
func (t *Table) index(at uint32) {
	e := &t.flows[at]
	t.trie.Update(e.key, func(b exprBucket, found bool) (exprBucket, bool) {
		if !found {
			return exprBucket{at, e.actions}, true
		}
		if t.shared == nil {
			t.shared = make(map[dz.Key][]uint32)
		}
		t.shared[e.key] = append(t.shared[e.key], at)
		return b, true
	})
}

// unindex takes the flow in slot at out of its key's bucket. Where it was the
// winner, the earliest installed of the rest takes over.
func (t *Table) unindex(at uint32) {
	k := t.flows[at].key
	t.trie.Update(k, func(b exprBucket, _ bool) (exprBucket, bool) {
		rest := t.shared[k]
		last := len(rest) - 1
		var i int
		if b.flow == at {
			if last < 0 {
				return exprBucket{}, false
			}
			for j, other := range rest {
				if t.flows[other].id < t.flows[rest[i]].id {
					i = j
				}
			}
			b = exprBucket{rest[i], t.flows[rest[i]].actions}
		} else {
			i = slices.Index(rest, at)
		}
		if last == 0 {
			delete(t.shared, k)
		} else {
			rest[i] = rest[last]
			t.shared[k] = rest[:last]
		}
		return b, true
	})
}

// flow copies the flow in slot at out of the slab.
func (t *Table) flow(at uint32) Flow {
	e := t.flows[at]
	return Flow{ID: e.id, Key: e.key, Priority: e.key.Len(), Actions: e.actions}
}

// Get returns a copy of the flow with the given ID.
func (t *Table) Get(id FlowID) (Flow, bool) {
	at, ok := t.slot[id]
	if !ok {
		return Flow{}, false
	}
	return t.flow(at), true
}

// Flows returns copies of all installed flows, ordered by ID.
func (t *Table) Flows() []Flow {
	out := make([]Flow, 0, t.Len())
	for at, e := range t.flows {
		if e.id != 0 {
			out = append(out, t.flow(uint32(at)))
		}
	}
	slices.SortFunc(out, func(a, b Flow) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// LookupKey is the forwarding path's lookup: k is the packet's destination
// as a switch matches it — all ipmc.MaxDzLen dz bits of the address, packed
// (ipmc.PadKey of an event's key, or ipmc.KeyFromAddr) — and the result is the
// winning flow's instruction set, by reference: callers range over it and must
// not write through it (Modify replaces a flow's actions wholesale and never
// writes into the old list, so a reader keeps a consistent one). ok is false
// if nothing matches; a key of any other length is not the key of a dz
// address — KeyFromAddr's answer for a destination outside ff0e::/16 — and
// matches nothing.
func (t *Table) LookupKey(k dz.Key) ([]Action, bool) {
	b, ok := t.winner(k)
	if !ok {
		return nil, false
	}
	return b.actions, true
}

// Lookup returns the flow the switch applies to a packet with the given
// destination address: the highest-priority match — the longest installed
// prefix — and among flows of that expression the earliest installed. ok is
// false if nothing matches (the packet would be dropped or punted to the
// controller). It is the boundary form of LookupKey — the same lookup for a
// caller that holds an address, not its packed key, and wants the whole
// entry: it packs the address and copies the winner out.
func (t *Table) Lookup(dst netip.Addr) (Flow, bool) {
	k, _ := ipmc.KeyFromAddr(dst) // the zero key for a non-dz destination
	b, ok := t.winner(k)
	if !ok {
		return Flow{}, false
	}
	return t.flow(b.flow), true
}

// winner is the one lookup behind Lookup and LookupKey: the bucket of the
// winning flow. Every installed flow has priority |dz|, so the winning entry
// is the longest installed prefix of the destination's dz bits, found by one
// trie descent over the packed key: no allocation, no write.
func (t *Table) winner(k dz.Key) (exprBucket, bool) {
	if k.Len() != ipmc.MaxDzLen {
		return exprBucket{}, false // not a dz destination: no dz flow matches
	}
	_, b, ok := t.trie.LongestPrefix(k)
	return b, ok
}
