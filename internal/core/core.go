// Package core implements the PLEROMA controller — the paper's primary
// contribution. A Controller manages one network partition: it reacts to
// advertisements and subscriptions (Algorithm 1), maintains a set of
// publisher-rooted spanning trees with pairwise-disjoint DZ sets
// (Section 3.2), and keeps the flow tables of the partition's switches
// consistent with the registered publisher/subscriber paths (Section 3.3),
// including the delete-or-downgrade behaviour on unsubscription.
//
// Flow-table state is maintained canonically: every established
// publisher→subscriber path registers per-switch contributions
// (dz-expression, out-port), and each switch's desired table is derived
// from its contributions — an entry per contributed subspace whose
// instruction set unions the ports of all covering contributions, with
// priority equal to the dz length and entries that duplicate a coarser
// entry pruned. This reproduces the incremental cases (1)–(5) of
// Section 3.3.2 (verified against the paper's Figure 4 in the tests) while
// staying consistent under arbitrary interleavings of (un)subscriptions
// and (un)advertisements.
package core

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"pleroma/internal/dz"
	"pleroma/internal/obs"
	"pleroma/internal/openflow"
	"pleroma/internal/topo"
)

// FlowProgrammer is the southbound interface the controller uses to program
// switches (implemented by *netem.DataPlane): a whole batch of FlowMods for
// one switch in a single call, modelling an OpenFlow bundle. Every control
// operation flushes one batch per touched switch, so southbound round-trips
// are O(touched switches), not O(flow ops).
//
// ApplyBatch must apply the operations in order, append one FlowID per
// applied operation to ids (the assigned ID for adds, zero otherwise) and
// return the extended slice; on error the appended part identifies the
// prefix that took effect. ops and ids are the controller's scratch: an
// implementation copies or encodes what it keeps of ops before it returns
// (the FlowOp values, not the slice), and keeps nothing of ids. The Actions
// of an add or a modify are the controller's installed entry's too: it may
// keep them, and neither side writes them.
type FlowProgrammer interface {
	ApplyBatch(sw topo.NodeID, ops []openflow.FlowOp, ids []openflow.FlowID) ([]openflow.FlowID, error)
}

// FlowReader is optionally implemented by FlowProgrammers that can report
// the flows actually installed on a switch (*netem.DataPlane and
// *netem.FaultyProgrammer do). When available, the anti-entropy pass
// (Resync) diffs the canonical state against this ground truth instead of
// trusting the controller's own installed map, and VerifyTables extends
// its incremental ≡ canonical check down to the emulated hardware.
type FlowReader interface {
	Flows(sw topo.NodeID) ([]openflow.Flow, error)
}

// HostAddrFunc resolves the unicast address of a host node for the
// terminal set-destination rewrite.
type HostAddrFunc func(topo.NodeID) netip.Addr

// TreeID identifies a dissemination tree within one controller.
type TreeID int

// AnyPartition makes a controller manage every node of the graph.
const AnyPartition = -1

// Errors callers can match.
var (
	// ErrUnknownClient is returned when unsubscribing or unadvertising an
	// identifier that was never registered.
	ErrUnknownClient = errors.New("core: unknown client id")
	// ErrDuplicateClient is returned when an identifier is reused.
	ErrDuplicateClient = errors.New("core: duplicate client id")
	// ErrForeignNode is returned when a client attaches to a node outside
	// the controller's partition.
	ErrForeignNode = errors.New("core: node outside controller partition")
)

// endpoint locates a client in the network: a host node for regular
// clients, or a border switch plus exit port for virtual clients that
// represent a neighbouring partition (Section 4.2).
type endpoint struct {
	node    topo.NodeID
	viaPort openflow.PortID // nonzero for virtual clients
}

func (e endpoint) virtual() bool { return e.viaPort != 0 }

type publisher struct {
	id  string
	ep  endpoint
	adv dz.Set
	// trees the publisher joined.
	trees treeSet
}

type subscriber struct {
	id  string
	ep  endpoint
	sub dz.Set
	// trees the subscriber joined; empty while the subscription is only
	// stored.
	trees treeSet
}

// treeSet is the ascending ids of the trees a client joined. A client joins
// few trees — a subscription of the benchmark's churn one — so a sorted
// slice costs one allocation where a map cost three, and iterates in the
// order a snapshot writes.
type treeSet []TreeID

func (s treeSet) has(id TreeID) bool {
	_, ok := slices.BinarySearch(s, id)
	return ok
}

// add inserts id and reports whether it was new.
func (s *treeSet) add(id TreeID) bool {
	i, ok := slices.BinarySearch(*s, id)
	if !ok {
		*s = slices.Insert(*s, i, id)
	}
	return !ok
}

func (s *treeSet) remove(id TreeID) {
	if i, ok := slices.BinarySearch(*s, id); ok {
		*s = slices.Delete(*s, i, i+1)
	}
}

// tree is one dissemination tree t ∈ T.
type tree struct {
	id   TreeID
	set  dz.Set // DZ(t), pairwise disjoint across trees
	span *topo.SpanningTree
	root topo.NodeID
	// pubs maps publisher id -> DZ^t(p), the overlap of the publisher's
	// advertisement with DZ(t).
	pubs map[string]dz.Set
	// subs maps subscriber id -> DZ^t(s).
	subs map[string]dz.Set
	// routes memoises routeHops on span, keyed by everything a route
	// depends on; every path on a route shares its hop slice, read-only.
	// The entries hold for span and the graph version routesAt: setSpan
	// drops them, and routeHops does on a version mismatch.
	routes   map[routeKey][]topo.Hop
	routesAt uint64
}

// routeKey names one route on a tree: its two endpoints, a virtual
// endpoint's exit port included.
type routeKey struct{ from, to endpoint }

// setSpan replaces the tree's spanning tree and drops the routes cached on
// the old one.
func (t *tree) setSpan(span *topo.SpanningTree) {
	t.span, t.routes = span, nil
}

// TreeInfo is the exported snapshot of one dissemination tree.
type TreeInfo struct {
	ID          TreeID
	DZ          dz.Set
	Root        topo.NodeID
	Publishers  []string
	Subscribers []string
}

// ReconfigReport summarises the work one control operation caused; the
// reconfiguration-delay experiment (Figure 7f) converts it to time via a
// CostModel.
type ReconfigReport struct {
	FlowAdds       int
	FlowDeletes    int
	FlowModifies   int
	TreesCreated   int
	TreesJoined    int
	TreesMerged    int
	RoutesComputed int
	// SouthboundCalls counts programmer invocations of the operation: one
	// batch per touched switch, plus one per retried flush.
	SouthboundCalls int
	// Retries counts southbound attempts repeated after a transient
	// programmer error (see RetryPolicy).
	Retries int
	// Quarantined counts switches that entered the degraded set during the
	// operation because their retries exhausted.
	Quarantined int
	// Stored is true when a subscription matched no tree and was only
	// recorded at the controller.
	Stored bool
}

// FlowOps returns the total number of FlowMod messages of the operation.
func (r ReconfigReport) FlowOps() int {
	return r.FlowAdds + r.FlowDeletes + r.FlowModifies
}

// Stats is a snapshot of the controller-lifetime counters. It is a view
// over the controller's obs instruments: every field reads an atomic
// counter that is also exportable through an attached obs.Registry under
// its canonical metric name, so report columns and scrape series can
// never disagree.
type Stats struct {
	Advertisements  uint64
	Subscriptions   uint64
	Unsubscriptions uint64
	Unadverts       uint64
	FlowAdds        uint64
	FlowDeletes     uint64
	FlowModifies    uint64
	TreesCreated    uint64
	TreesMerged     uint64
	StoredSubs      uint64
	// SouthboundCalls counts programmer invocations (batches count once).
	SouthboundCalls uint64
	// Retries counts southbound attempts repeated after transient errors.
	Retries uint64
	// Quarantines counts switches that entered the degraded set.
	Quarantines uint64
	// Resyncs counts anti-entropy passes over single switches.
	Resyncs uint64
	// RepairedFlows counts FlowMods issued by resync passes to heal
	// divergence between canonical and installed state.
	RepairedFlows uint64
}

// FlowOps returns the total number of FlowMod messages issued.
func (s Stats) FlowOps() uint64 { return s.FlowAdds + s.FlowDeletes + s.FlowModifies }

// Controller is the PLEROMA middleware instance of one partition.
//
// A Controller has one owner: the goroutine driving its partition (in the
// daemon, the holder of the server's backend lock). Every method but
// DegradedSet belongs to that owner; the controller takes no lock of its
// own around them. One control operation programs the
// switches it touched one after the other, in ascending switch order, on
// the calling goroutine: the FlowProgrammer sees at most one call at a time
// from a Controller.
type Controller struct {
	g         *topo.Graph
	prog      FlowProgrammer
	reader    FlowReader // non-nil when prog can report switch state
	hostAddr  HostAddrFunc
	partition int
	maxTrees  int
	// retry shapes southbound retries on transient errors; the zero value
	// means a single attempt (no retries).
	retry RetryPolicy

	nextTree TreeID
	trees    map[TreeID]*tree
	// treeIdx maps owned DZ prefixes to their tree so advertise/subscribe
	// resolve overlapping trees by prefix query instead of scanning every
	// tree's set. Kept in sync by createTree/dismantleTree/mergeTrees.
	treeIdx treeIndex
	pubs    map[string]*publisher
	subs    map[string]*subscriber

	// contribs holds one branch per (subscriber, tree) with established
	// paths and the per-switch aggregates derived from them; installed tracks the flows currently
	// programmed per switch, keyed by the packed match. A switch without
	// flows has no map.
	contribs  *contribState
	installed map[topo.NodeID]map[dz.Key]installedFlow
	// actions interns the instruction sets of installed flows: one list
	// per (switch, port set), shared by every flow that has it (actions.go).
	actions actionSets

	// Scratch of one control operation, reused by the next: the change set
	// of Subscribe and Unsubscribe, the batch and its installed-state
	// updates refreshSwitch collects for one switch and the ops flushOps
	// records as acknowledged — emptied and zeroed after each flush, so no
	// flow stays reachable from here — the FlowIDs the programmer appends
	// to, refreshSwitch's derivation, and the publisher ids subscribe
	// sorts once per tree, reset when a subscription starts.
	//
	// opCh is bounded by one subscription and empty between operations:
	// apply empties it on every exit path (Subscribe's deferred apply,
	// Unsubscribe's refresh). Operations whose change sets scale with the
	// deployment — Advertise, Unadvertise, merges, RebuildTrees, restore —
	// make their own, because clear keeps a map's buckets, a range walks
	// all of them, and the set keeps its changed list.
	opCh       *changeSet
	batchOps   []openflow.FlowOp
	batchMetas []opMeta
	acked      []ackedOp
	ids        []openflow.FlowID
	deriv      derivation
	pubOrder   []treePubs

	// degraded holds quarantined switches (see DegradedSet): the one part
	// of a controller another goroutine reads.
	degraded *DegradedSet

	// journal, when set, receives a wire.Record for every successful
	// control operation (see journal.go). epoch is the controller's
	// incarnation number (bumped on failover), jseq the sequence of the
	// last journaled or replayed op, and replaying suppresses re-appends
	// while Replay drives operations from the journal itself.
	journal   *Journal
	epoch     uint32
	jseq      uint64
	replaying bool

	// inst holds the lifetime counters (always allocated; Stats reads
	// them). tracer, when set, assigns spans to control operations; span
	// is the operation currently in flight, parked here so the flush and
	// quarantine sites can annotate it.
	inst   *instruments
	tracer *obs.Tracer
	span   *obs.Span
}

// installedFlow is one flow the controller programmed. Its priority is its
// key's length: a table refuses any other (openflow's admission rule).
type installedFlow struct {
	id      openflow.FlowID
	actions []openflow.Action
}

// Option configures a Controller.
type Option func(*Controller)

// WithPartition restricts the controller to nodes of one partition.
func WithPartition(p int) Option {
	return func(c *Controller) { c.partition = p }
}

// WithMaxTrees sets the tree-count threshold above which trees are merged
// (Section 3.2). Zero disables merging.
func WithMaxTrees(n int) Option {
	return func(c *Controller) { c.maxTrees = n }
}

// WithHostAddr overrides how host unicast addresses are derived.
func WithHostAddr(f HostAddrFunc) Option {
	return func(c *Controller) { c.hostAddr = f }
}

// WithRetryPolicy makes southbound flushes retry transient programmer
// errors with capped exponential backoff (see RetryPolicy). The default
// (zero) policy performs a single attempt, so a transient failure
// immediately quarantines the switch for the next resync pass.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Controller) { c.retry = p }
}

// WithObservability attaches the controller's lifetime counters, latency
// histograms, per-switch FlowMod counters, and tree gauges to reg, and —
// when tracer is non-nil — assigns a trace span to every control
// operation. Either argument may be nil. Without this option the
// controller still maintains its counters (they back the Stats view) but
// exports nothing and creates no spans.
func WithObservability(reg *obs.Registry, tracer *obs.Tracer) Option {
	return func(c *Controller) {
		c.inst = newInstruments(reg)
		c.tracer = tracer
	}
}

// NewController creates a controller for (one partition of) the topology.
func NewController(g *topo.Graph, prog FlowProgrammer, opts ...Option) (*Controller, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if prog == nil {
		return nil, fmt.Errorf("core: nil flow programmer")
	}
	c := &Controller{
		g:         g,
		prog:      prog,
		partition: AnyPartition,
		trees:     make(map[TreeID]*tree),
		pubs:      make(map[string]*publisher),
		subs:      make(map[string]*subscriber),
		contribs:  newContribState(),
		opCh:      newChangeSet(),
		installed: make(map[topo.NodeID]map[dz.Key]installedFlow),
		degraded:  &DegradedSet{m: make(map[topo.NodeID]error)},
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.inst == nil {
		c.inst = newInstruments(nil)
	}
	if c.hostAddr == nil {
		return nil, fmt.Errorf("core: host address function required (use WithHostAddr)")
	}
	c.reader, _ = prog.(FlowReader)
	c.actions.version = g.Version()
	return c, nil
}

// Stats returns a snapshot of the lifetime counters. Called by the owner,
// it falls between operations, so no counter moves mid-read.
func (c *Controller) Stats() Stats {
	i := c.inst
	return Stats{
		Advertisements:  i.advertise.Value(),
		Subscriptions:   i.subscribe.Value(),
		Unsubscriptions: i.unsubscribe.Value(),
		Unadverts:       i.unadvertise.Value(),
		FlowAdds:        i.flowAdds.Value(),
		FlowDeletes:     i.flowDeletes.Value(),
		FlowModifies:    i.flowModifies.Value(),
		TreesCreated:    i.treesCreated.Value(),
		TreesMerged:     i.treesMerged.Value(),
		StoredSubs:      i.storedSubs.Value(),
		SouthboundCalls: i.southboundCalls.Value(),
		Retries:         i.retries.Value(),
		Quarantines:     i.quarantines.Value(),
		Resyncs:         i.resyncs.Value(),
		RepairedFlows:   i.repairedFlows.Value(),
	}
}

// Trees returns snapshots of all dissemination trees, ordered by ID.
func (c *Controller) Trees() []TreeInfo {
	out := make([]TreeInfo, 0, len(c.trees))
	for id := TreeID(1); id <= c.nextTree; id++ {
		t, ok := c.trees[id]
		if !ok {
			continue
		}
		info := TreeInfo{ID: t.id, DZ: t.set.Clone(), Root: t.root}
		for p := range t.pubs {
			info.Publishers = append(info.Publishers, p)
		}
		for s := range t.subs {
			info.Subscribers = append(info.Subscribers, s)
		}
		sort.Strings(info.Publishers)
		sort.Strings(info.Subscribers)
		out = append(out, info)
	}
	return out
}

// TreeFor resolves the dissemination tree whose DZ set owns the given
// packed dz (typically an event's point), or false when no tree covers it.
// Tree sets are pairwise disjoint, so a point has at most one owner. The
// lookup is one trie query and does not allocate — it is safe on the
// per-publish hot path.
func (c *Controller) TreeFor(k dz.Key) (TreeID, bool) {
	return c.treeIdx.first(k)
}

// StoredSubscriptions returns the ids of subscriptions that currently
// match no tree.
func (c *Controller) StoredSubscriptions() []string {
	var out []string
	for id, s := range c.subs {
		if len(s.trees) == 0 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// inPartition reports whether the controller manages the node.
func (c *Controller) inPartition(n topo.NodeID) bool {
	if c.partition == AnyPartition {
		return true
	}
	return c.g.Partition(n) == c.partition
}
