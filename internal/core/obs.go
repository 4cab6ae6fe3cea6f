package core

import (
	"strconv"
	"time"

	"pleroma/internal/obs"
	"pleroma/internal/topo"
)

// Control-operation kinds, used as the op label of request counters,
// latency histograms, and trace spans.
const (
	opAdvertise    = "advertise"
	opSubscribe    = "subscribe"
	opUnsubscribe  = "unsubscribe"
	opUnadvertise  = "unadvertise"
	opRebuildTrees = "rebuild-trees"
	opResync       = "resync"
)

// Algorithm-1 / Section 3.3.2 incremental reconfiguration cases, used as
// the case label of the reconfiguration-case counter. install covers the
// paper's "new entry" cases, covered its pruning case (2) where a coarser
// entry already forwards identically, extend/downgrade the instruction-set
// widening/narrowing of cases (3)–(5), delete the removal of an entry
// without remaining contributions, and modify any other rewrite (priority
// or terminal-destination change).
const (
	caseInstall   = "install"
	caseCovered   = "covered"
	caseExtend    = "extend"
	caseDowngrade = "downgrade"
	caseDelete    = "delete"
	caseModify    = "modify"
)

// instruments is the controller's always-on counter bundle. The lifetime
// Stats view reads these atomics, so they exist (and are updated) even
// without a registry; attaching them to an obs.Registry via
// WithObservability only makes them exportable. The per-switch vectors,
// latency histograms, and tree gauges are populated unconditionally too —
// they live on the control path, whose per-op cost (µs–ms) dwarfs an
// atomic add — while the publish hot path carries no instruments at all
// in this package.
type instruments struct {
	requests *obs.Vec[string, *obs.Counter] // by op
	// cached members of requests, avoiding a map lookup per request
	advertise, subscribe, unsubscribe, unadvertise *obs.Counter

	flowMods *obs.Vec[string, *obs.Counter] // by kind
	// cached members of flowMods
	flowAdds, flowDeletes, flowModifies *obs.Counter

	cases *obs.Vec[string, *obs.Counter] // by Algorithm-1 case
	// cached members of cases
	caseInstall, caseCovered, caseExtend, caseDowngrade, caseDelete, caseModify *obs.Counter

	treesCreated, treesMerged, storedSubs *obs.Counter
	southboundCalls, retries, quarantines *obs.Counter
	resyncs, repairedFlows                *obs.Counter
	snapshots, journalRecords             *obs.Counter
	journalReplayed                       *obs.Counter
	snapshotBytes                         *obs.Gauge
	latency                               *obs.Vec[string, *obs.Histogram] // by op
	swFlowMods, swRetries, swFailures     *obs.Vec[topo.NodeID, *obs.Counter]
	treeDz                                *obs.Vec[TreeID, *obs.Gauge]
}

// newInstruments builds the bundle and, when reg is non-nil, attaches
// every instrument under its canonical obs.M* name.
func newInstruments(reg *obs.Registry) *instruments {
	i := &instruments{
		requests:        obs.NewVec[string](obs.NewCounter),
		flowMods:        obs.NewVec[string](obs.NewCounter),
		cases:           obs.NewVec[string](obs.NewCounter),
		treesCreated:    obs.NewCounter(),
		treesMerged:     obs.NewCounter(),
		storedSubs:      obs.NewCounter(),
		southboundCalls: obs.NewCounter(),
		retries:         obs.NewCounter(),
		quarantines:     obs.NewCounter(),
		resyncs:         obs.NewCounter(),
		repairedFlows:   obs.NewCounter(),
		snapshots:       obs.NewCounter(),
		journalRecords:  obs.NewCounter(),
		journalReplayed: obs.NewCounter(),
		snapshotBytes:   obs.NewGauge(),
		latency:         obs.NewVec[string](func() *obs.Histogram { return obs.NewHistogram() }),
		swFlowMods:      obs.NewVec[topo.NodeID](obs.NewCounter),
		swRetries:       obs.NewVec[topo.NodeID](obs.NewCounter),
		swFailures:      obs.NewVec[topo.NodeID](obs.NewCounter),
		treeDz:          obs.NewVec[TreeID](obs.NewGauge),
	}
	i.advertise = i.requests.With(opAdvertise)
	i.subscribe = i.requests.With(opSubscribe)
	i.unsubscribe = i.requests.With(opUnsubscribe)
	i.unadvertise = i.requests.With(opUnadvertise)
	i.flowAdds = i.flowMods.With("add")
	i.flowDeletes = i.flowMods.With("delete")
	i.flowModifies = i.flowMods.With("modify")
	i.caseInstall = i.cases.With(caseInstall)
	i.caseCovered = i.cases.With(caseCovered)
	i.caseExtend = i.cases.With(caseExtend)
	i.caseDowngrade = i.cases.With(caseDowngrade)
	i.caseDelete = i.cases.With(caseDelete)
	i.caseModify = i.cases.With(caseModify)

	reg.AttachVec(obs.MRequests, "Control requests processed, by operation.", "op", i.requests)
	reg.AttachVec(obs.MFlowMods, "FlowMod messages acknowledged by switches, by kind.", "kind", i.flowMods)
	reg.AttachVec(obs.MReconfigCases, "Incremental reconfiguration cases of Algorithm 1 taken by the flow derivation.", "case", i.cases)
	reg.Attach(obs.MTreesCreated, "Dissemination trees created.", i.treesCreated)
	reg.Attach(obs.MTreesMerged, "Dissemination tree merges (Section 3.2 threshold).", i.treesMerged)
	reg.Attach(obs.MStoredSubs, "Subscriptions stored without a matching tree.", i.storedSubs)
	reg.Attach(obs.MSouthboundCalls, "Southbound programmer invocations (a batch counts once).", i.southboundCalls)
	reg.Attach(obs.MSouthboundRetries, "Southbound attempts repeated after transient errors.", i.retries)
	reg.Attach(obs.MQuarantines, "Switches quarantined after exhausting southbound retries.", i.quarantines)
	reg.Attach(obs.MResyncs, "Anti-entropy passes over single switches.", i.resyncs)
	reg.Attach(obs.MResyncRepaired, "Repair FlowMods issued by anti-entropy passes.", i.repairedFlows)
	reg.Attach(obs.MSnapshots, "Controller state snapshots encoded.", i.snapshots)
	reg.Attach(obs.MJournalRecords, "Control operations appended to the op journal.", i.journalRecords)
	reg.Attach(obs.MJournalReplayed, "Journal records replayed during standby promotion or restore.", i.journalReplayed)
	reg.Attach(obs.MSnapshotBytes, "Size of the last encoded controller snapshot in bytes.", i.snapshotBytes)
	reg.AttachVec(obs.MReconfigDuration, "Wall-clock latency of control operations, by operation.", "op", i.latency)
	reg.AttachVec(obs.MSwitchFlowMods, "FlowMods acknowledged per switch.", "switch", i.swFlowMods)
	reg.AttachVec(obs.MSwitchRetries, "Southbound retries per switch.", "switch", i.swRetries)
	reg.AttachVec(obs.MSwitchFailures, "FlowMods abandoned per switch (retries exhausted).", "switch", i.swFailures)
	reg.AttachVec(obs.MTreeDzSize, "DZ-set size per live dissemination tree.", "tree", i.treeDz)
	return i
}

// swLabel renders a switch ID as a span attribute.
func swLabel(sw topo.NodeID) string { return strconv.Itoa(int(sw)) }

// treeLabel renders a tree ID as a span attribute.
func treeLabel(id TreeID) string { return strconv.Itoa(int(id)) }

// beginOp opens the observation scope of one control operation: a trace
// span (when tracing is enabled; target is computed lazily so disabled
// tracing pays nothing) and the latency-clock start. The span is parked
// on c.span so the flush sites can annotate it.
func (c *Controller) beginOp(op string, target func() string) (*obs.Span, time.Time) {
	var sp *obs.Span
	if c.tracer != nil {
		sp = c.tracer.StartSpan(op, target())
	}
	c.span = sp
	return sp, time.Now()
}

// endOp closes the scope opened by beginOp: the op latency is observed
// and the span receives the reconfiguration summary before it ends.
func (c *Controller) endOp(op string, sp *obs.Span, start time.Time, rep *ReconfigReport, err error) {
	c.span = nil
	c.inst.latency.With(op).Observe(time.Since(start))
	if sp == nil {
		return
	}
	sp.Event("report",
		"flowAdds", strconv.Itoa(rep.FlowAdds),
		"flowDeletes", strconv.Itoa(rep.FlowDeletes),
		"flowModifies", strconv.Itoa(rep.FlowModifies),
		"treesCreated", strconv.Itoa(rep.TreesCreated),
		"treesMerged", strconv.Itoa(rep.TreesMerged),
		"southbound", strconv.Itoa(rep.SouthboundCalls),
		"retries", strconv.Itoa(rep.Retries),
		"quarantined", strconv.Itoa(rep.Quarantined),
	)
	sp.End(err)
}
