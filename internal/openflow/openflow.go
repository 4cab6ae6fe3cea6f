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
// installed wins.
package openflow

import (
	"errors"
	"fmt"
	"net/netip"
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

// Flow is a single flow-table entry.
type Flow struct {
	// ID is assigned by the table on installation; zero for new flows.
	ID FlowID
	// Expr is the dz-expression of the match field; its CIDR form is
	// ipmc.FromExpr(Expr).
	Expr dz.Expr
	// Priority orders entries; higher wins. A table admits a flow only at
	// priority |Expr|, so that longer (finer) subspaces match first.
	Priority int
	// Actions is the instruction set.
	Actions []Action
}

// NewFlow builds a flow for the given subspace, priority, and actions. The
// expression must fit an address (ipmc.KeyFromExpr); the priority is checked
// when a table is asked to install the flow.
func NewFlow(expr dz.Expr, priority int, actions ...Action) (Flow, error) {
	if _, err := ipmc.KeyFromExpr(expr); err != nil {
		return Flow{}, fmt.Errorf("openflow: %w", err)
	}
	return Flow{
		Expr:     expr,
		Priority: priority,
		Actions:  append([]Action(nil), actions...),
	}, nil
}

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
	if !f.Expr.Covers(o.Expr) {
		return false
	}
	for _, p := range o.OutPorts() {
		if !f.HasPort(p) {
			return false
		}
	}
	return true
}

// PartiallyCovers reports whether f partially covers o: f's subspace covers
// o's subspace but not all of o's out ports are in f's instruction set.
func (f Flow) PartiallyCovers(o Flow) bool {
	if !f.Expr.Covers(o.Expr) {
		return false
	}
	for _, p := range o.OutPorts() {
		if !f.HasPort(p) {
			return true
		}
	}
	return false
}

// String renders the flow like the paper's figures: "100* > 2,3 :PO=1".
func (f Flow) String() string {
	ports := f.OutPorts()
	parts := make([]string, len(ports))
	for i, p := range ports {
		parts[i] = fmt.Sprintf("%d", p)
	}
	return fmt.Sprintf("%s* > %s :PO=%d", f.Expr, strings.Join(parts, ","), f.Priority)
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
// controller installs every flow at; TryAdd, AppendBatch and Modify refuse
// any other priority with ErrPriorityMismatch and leave the table as it was.
// Under that rule the highest-priority match is the longest installed prefix
// of the destination, so the table has one lookup: a multi-bit trie
// (dz.Trie: 4 dz bits per node, nodes in one pointer-free array) over the
// packed dz bits of the match expressions — O(|dz|/4) steps, no allocation
// and no write per lookup, mirroring the constant-time behaviour of
// hardware TCAMs that Figure 7(a) demonstrates.
//
// The trie's value is the bucket of one match expression: its winning flow
// and that flow's instruction set (exprBucket.actions, the slice header of
// best.Actions), so the forwarding path gets its answer from the trie's value
// slab and never loads a Flow. The mirror has one writer, exprBucket.setBest,
// called wherever index and unindex change best — and Modify re-indexes the
// flow it changes, so a winner's new list reaches the bucket the same way.
// The other flows of an expression that has several wait in Table.shared.
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
	flows  map[FlowID]*Flow
	nextID FlowID
	stats  ModStats

	// trie is the table's one lookup index: one bucket per distinct match
	// expression, keyed on packed dz bits.
	trie dz.Trie[exprBucket]
	// shared holds, for the rare expression several flows are installed
	// under, the flows that are not its bucket's winner, in no particular
	// order. Beside the trie, not in the bucket: every hop copies the bucket
	// out of the trie, and a slice header nothing on that path reads cost
	// tcp-pipe's one-flow tables more than the lookup saved.
	shared map[dz.Key][]*Flow
	// capacity bounds the number of installed flows (the TCAM budget of
	// requirement 3 in the paper: vendors ship 40k–180k entries); zero
	// means unbounded.
	capacity int
	// rejected counts adds refused because the table was full.
	rejected uint64
	// sizeObserver, when set, is called with the new flow count after
	// every size change — observers must be cheap and must not call back
	// into the table. The observability layer uses it to drive per-switch
	// occupancy gauges from the ground truth.
	sizeObserver func(int)
}

// ErrTableFull is returned (wrapped) when an Add exceeds the configured
// TCAM capacity.
var ErrTableFull = errors.New("openflow: flow table full")

// ErrPriorityMismatch is returned (wrapped) when a flow would be installed
// at a priority other than the length of its dz-expression.
var ErrPriorityMismatch = errors.New("openflow: flow priority is not its dz length")

// admit is the table's admission rule: a flow is installed only at priority
// |expr|, and only for an expression that fits an address.
func admit(expr dz.Expr, priority int) error {
	if priority != expr.Len() {
		return fmt.Errorf("%w: priority %d for %q", ErrPriorityMismatch, priority, expr)
	}
	if _, err := ipmc.KeyFromExpr(expr); err != nil {
		return fmt.Errorf("openflow: %w", err)
	}
	return nil
}

// exprBucket is what the trie stores for one exact match expression. best is
// the lookup winner, the lowest FlowID (earliest installed) of the flows
// installed under the expression — the others are in Table.shared — kept
// current by index and unindex so that a lookup reads it straight from the
// trie. actions mirrors best.Actions — the slice header, not the elements —
// so that the forwarding path has its answer inside the trie's value slab and
// never loads the Flow; setBest is the one writer of both. The elements are
// the controller's: every flow it installs with one port set on a switch
// shares one list, so the buckets of a busy table point into a handful of
// arrays that stay in cache, not one per flow.
type exprBucket struct {
	best    *Flow
	actions []Action
}

// setBest makes f the bucket's winner.
func (b *exprBucket) setBest(f *Flow) { b.best, b.actions = f, f.Actions }

// NewTable returns an empty flow table.
func NewTable() *Table {
	return &Table{flows: make(map[FlowID]*Flow), shared: make(map[dz.Key][]*Flow)}
}

// Len returns the number of installed flows.
func (t *Table) Len() int { return len(t.flows) }

// Stats returns the FlowMod counters.
func (t *Table) Stats() ModStats {
	return t.stats
}

// ResetStats zeroes the FlowMod counters.
func (t *Table) ResetStats() {
	t.stats = ModStats{}
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
		fn(len(t.flows))
	}
}

// Rejected returns the number of Adds refused due to a full table.
func (t *Table) Rejected() uint64 {
	return t.rejected
}

// Add installs a flow and returns its assigned ID.
func (t *Table) Add(f Flow) FlowID {
	id, _ := t.TryAdd(f)
	return id
}

// TryAdd installs a flow, enforcing the admission rule and the TCAM
// capacity. A flow whose priority is not |dz| gets ErrPriorityMismatch, a
// full table ErrTableFull; either way nothing is installed.
func (t *Table) TryAdd(f Flow) (FlowID, error) {
	if err := admit(f.Expr, f.Priority); err != nil {
		return 0, err
	}
	if t.capacity > 0 && len(t.flows) >= t.capacity {
		t.rejected++
		return 0, fmt.Errorf("%w: %d entries installed", ErrTableFull, len(t.flows))
	}
	t.nextID++
	f.ID = t.nextID
	t.flows[f.ID] = &f
	t.index(&f)
	t.stats.Adds++
	if t.sizeObserver != nil {
		t.sizeObserver(len(t.flows))
	}
	return f.ID, nil
}

// Delete removes the flow with the given ID. It reports whether a flow was
// removed.
func (t *Table) Delete(id FlowID) bool {
	f, ok := t.flows[id]
	if !ok {
		return false
	}
	t.unindex(f)
	delete(t.flows, id)
	t.stats.Deletes++
	if t.sizeObserver != nil {
		t.sizeObserver(len(t.flows))
	}
	return true
}

// Modify replaces the actions and priority of an installed flow. It fails,
// and changes nothing, when no flow has the ID or the priority is not the
// flow's |dz|. The table keeps the caller's list, as TryAdd keeps an added
// flow's: neither side writes it afterwards — the controller hands every
// flow of a port set one shared, immutable list — and the old list is
// replaced, never written, so one an earlier LookupKey handed out stays as
// it was.
func (t *Table) Modify(id FlowID, priority int, actions []Action) error {
	f, ok := t.flows[id]
	if !ok {
		return fmt.Errorf("no flow %d", id)
	}
	if err := admit(f.Expr, priority); err != nil {
		return err
	}
	t.unindex(f)
	f.Priority = priority
	f.Actions = actions
	t.index(f)
	t.stats.Mods++
	return nil
}

// index files an admitted flow under its expression's bucket.
func (t *Table) index(f *Flow) {
	k, _ := dz.KeyOf(f.Expr) // admitted: the expression fits a key
	t.trie.Update(k, func(b exprBucket, found bool) (exprBucket, bool) {
		switch {
		case !found:
			b.setBest(f)
		case f.ID < b.best.ID: // a modified flow coming back to its bucket
			t.shared[k] = append(t.shared[k], b.best)
			b.setBest(f)
		default:
			t.shared[k] = append(t.shared[k], f)
		}
		return b, true
	})
}

func (t *Table) unindex(f *Flow) {
	k, _ := dz.KeyOf(f.Expr)
	t.trie.Update(k, func(b exprBucket, found bool) (exprBucket, bool) {
		if !found {
			return b, false
		}
		// Take f's place with the last of rest; where f was the winner,
		// with the lowest ID of rest.
		rest := t.shared[k]
		at, last := -1, len(rest)-1
		if b.best.ID == f.ID {
			if last < 0 {
				return exprBucket{}, false
			}
			at = 0
			for i, other := range rest {
				if other.ID < rest[at].ID {
					at = i
				}
			}
			b.setBest(rest[at])
		} else {
			for i, other := range rest {
				if other.ID == f.ID {
					at = i
					break
				}
			}
		}
		switch {
		case at < 0:
		case last == 0:
			delete(t.shared, k)
		default:
			rest[at] = rest[last]
			rest[last] = nil
			t.shared[k] = rest[:last]
		}
		return b, true
	})
}

// Get returns a copy of the flow with the given ID.
func (t *Table) Get(id FlowID) (Flow, bool) {
	f, ok := t.flows[id]
	if !ok {
		return Flow{}, false
	}
	return *f, true
}

// Flows returns copies of all installed flows, ordered by ID.
func (t *Table) Flows() []Flow {
	out := make([]Flow, 0, len(t.flows))
	for _, f := range t.flows {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
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
	f, actions := t.winner(k)
	return actions, f != nil
}

// Lookup returns the flow the switch applies to a packet with the given
// destination address: the highest-priority match — the longest installed
// prefix — and among flows of that expression the earliest installed. ok is
// false if nothing matches
// (the packet would be dropped or punted to the controller). It is the
// boundary form of LookupKey — the same lookup for a caller that holds an
// address, not its packed key, and wants the whole entry: it packs the
// address and copies the winner out.
func (t *Table) Lookup(dst netip.Addr) (Flow, bool) {
	k, _ := ipmc.KeyFromAddr(dst) // the zero key for a non-dz destination
	f, _ := t.winner(k)
	if f == nil {
		return Flow{}, false
	}
	return *f, true
}

// winner is the one lookup behind Lookup and LookupKey. It returns the
// winning flow (nil: no match) and its instruction set. Every installed
// flow has priority |dz|, so the winning entry is the longest
// installed prefix of the destination's dz bits, found by one trie descent
// over the packed key: no allocation, no write, and both results come out of
// the trie's bucket — the flow is not loaded, so LookupKey, which wants only
// the actions, never touches it.
func (t *Table) winner(k dz.Key) (*Flow, []Action) {
	if k.Len() != ipmc.MaxDzLen {
		return nil, nil // not a dz destination: no dz flow matches
	}
	_, b, _ := t.trie.LongestPrefix(k)
	return b.best, b.actions // zero when no installed prefix matches
}
