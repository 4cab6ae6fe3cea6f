// Package obs is the runtime observability layer of the middleware: a
// concurrent metrics registry (atomic counters, gauges, and fixed-bucket
// histograms with cheap snapshots and Prometheus text exposition),
// control-plane tracing (per-reconfiguration spans collected in a bounded
// ring buffer, optionally mirrored to a log/slog sink), and the
// operational HTTP surface (/metrics, /healthz, /readyz, /traces, pprof).
//
// The paper's evaluation (Section 6) is built from quantities — flow-table
// occupancy, reconfiguration latency per Algorithm-1 case, false-positive
// rate, southbound retry churn — that previously existed only as post-hoc
// experiment tallies; this package makes them visible on a live System.
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Vec, *Registry, *Tracer, or *Span are no-ops, so
// instrumented code points cost a nil check when observability is
// disabled. Instruments are standalone values owned by the component that
// populates them (a controller, the data plane); attaching them to a
// Registry only determines whether they appear in the exported snapshot.
// Several components may attach instruments under the same metric name —
// for example one controller per partition — and the registry sums
// same-name (and same-label-value) samples at collection time, so the
// exposition always shows deployment-wide totals.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical metric names. They are defined once here and shared by the
// controller's Stats view, the experiment harness, and the Prometheus
// exposition, so a counter can never drift between its report column and
// its scrape name.
const (
	// MRequests counts control requests by op (advertise, subscribe,
	// unsubscribe, unadvertise).
	MRequests = "pleroma_controller_requests_total"
	// MReconfigDuration is the wall-clock latency histogram of control
	// operations, by op.
	MReconfigDuration = "pleroma_reconfig_duration_seconds"
	// MFlowMods counts issued FlowMod messages by kind (add, delete,
	// modify).
	MFlowMods = "pleroma_flowmods_total"
	// MReconfigCases counts the incremental reconfiguration cases of
	// Algorithm 1 / Section 3.3.2 taken by the flow derivation.
	MReconfigCases = "pleroma_reconfig_cases_total"
	// MTreesCreated / MTreesMerged count dissemination-tree life-cycle
	// events.
	MTreesCreated = "pleroma_trees_created_total"
	MTreesMerged  = "pleroma_trees_merged_total"
	// MTreeDzSize gauges the DZ-set size per live dissemination tree.
	MTreeDzSize = "pleroma_tree_dz_size"
	// MStoredSubs counts subscriptions stored without a matching tree.
	MStoredSubs = "pleroma_stored_subscriptions_total"
	// MSouthboundCalls counts programmer invocations (a batch counts once).
	MSouthboundCalls = "pleroma_southbound_calls_total"
	// MSouthboundRetries counts southbound attempts repeated after
	// transient errors.
	MSouthboundRetries = "pleroma_southbound_retries_total"
	// MQuarantines counts switches that entered the degraded set.
	MQuarantines = "pleroma_switch_quarantines_total"
	// MResyncs counts anti-entropy passes over single switches.
	MResyncs = "pleroma_resync_passes_total"
	// MResyncRepaired counts FlowMods issued by resync passes.
	MResyncRepaired = "pleroma_resync_repaired_flows_total"
	// MSwitchFlowMods / MSwitchRetries / MSwitchFailures count per-switch
	// FlowMods acknowledged, retried, and abandoned.
	MSwitchFlowMods = "pleroma_switch_flowmods_total"
	MSwitchRetries  = "pleroma_switch_flowmod_retries_total"
	MSwitchFailures = "pleroma_switch_flowmod_failures_total"
	// MFlowTableOccupancy gauges installed flows per switch (TCAM
	// pressure), read from the emulated tables themselves.
	MFlowTableOccupancy = "pleroma_flow_table_occupancy"
	// MLinkPackets / MLinkDrops count data-plane transmissions and drops.
	MLinkPackets = "pleroma_link_packets_total"
	MLinkDrops   = "pleroma_link_drops_total"
	// MHostDeliveries counts packets handed to host applications.
	MHostDeliveries = "pleroma_host_deliveries_total"
	// MHostDemuxCandidates counts the subscription index entries host
	// demux visited for those packets (matches plus duplicates).
	MHostDemuxCandidates = "pleroma_host_demux_candidates_total"
	// MDeliveries / MFalsePositives count subscription deliveries and the
	// false positives among them (Section 6.4's FPR numerator).
	MDeliveries     = "pleroma_deliveries_total"
	MFalsePositives = "pleroma_false_positives_total"
	// MDeliveryLatency is the end-to-end (simulated) delivery latency
	// histogram.
	MDeliveryLatency = "pleroma_delivery_latency_seconds"
	// MInjectedFaults counts failures produced by the fault-injection
	// layer.
	MInjectedFaults = "pleroma_injected_faults_total"
	// MInterdomainMessages / MInterdomainSuppressed count
	// controller-to-controller messages and covering-suppressed
	// forwardings.
	MInterdomainMessages   = "pleroma_interdomain_messages_total"
	MInterdomainSuppressed = "pleroma_interdomain_suppressed_total"
	// MShardQueueDepth gauges pending events per shard engine, sampled at
	// barrier windows of the parallel simulation engine.
	MShardQueueDepth = "pleroma_shard_queue_depth"
	// MShardHorizon gauges the committed simulation horizon per shard
	// (nanoseconds): no shard has executed past it.
	MShardHorizon = "pleroma_shard_horizon_ns"
	// MShardWindows counts barrier windows executed by the parallel
	// engine.
	MShardWindows = "pleroma_shard_windows_total"
	// MShardStalls counts barrier stalls per shard: windows in which the
	// shard had no runnable event and sat at the barrier while its
	// neighbours worked.
	MShardStalls = "pleroma_shard_barrier_stalls_total"
	// MShardMailbox gauges the cross-shard mailbox backlog per receiving
	// shard, sampled when mailboxes are flushed at a barrier.
	MShardMailbox = "pleroma_shard_mailbox_backlog"
	// MShardCrossMessages counts packets that hopped between shards
	// through the mailbox exchange.
	MShardCrossMessages = "pleroma_shard_cross_messages_total"
	// MSnapshots counts controller state snapshots encoded; MSnapshotBytes
	// gauges the size of the last one.
	MSnapshots     = "pleroma_controller_snapshots_total"
	MSnapshotBytes = "pleroma_controller_snapshot_bytes"
	// MJournalRecords counts control ops appended to the op journal;
	// MJournalReplayed counts records replayed by a takeover or a restore.
	MJournalRecords  = "pleroma_journal_records_total"
	MJournalReplayed = "pleroma_journal_replayed_total"
	// MFailovers counts warm-standby takeovers per partition, and
	// MControllerEpoch gauges each partition's controller incarnation.
	MFailovers       = "pleroma_controller_failovers_total"
	MControllerEpoch = "pleroma_controller_epoch"
	// MTransportFramesSent / MTransportFramesRecv and the byte twins count
	// framed messages crossing the TCP transport boundary (both roles).
	MTransportFramesSent = "pleroma_transport_frames_sent_total"
	MTransportFramesRecv = "pleroma_transport_frames_recv_total"
	MTransportBytesSent  = "pleroma_transport_bytes_sent_total"
	MTransportBytesRecv  = "pleroma_transport_bytes_recv_total"
	// MTransportReconnects counts client redials after a lost connection;
	// MTransportConns gauges the server's live connections and
	// MTransportInflight the requests waiting for or holding Server.mu
	// (a connection reads its next request only after answering the last,
	// so at most one per connection).
	MTransportReconnects = "pleroma_transport_reconnects_total"
	MTransportConns      = "pleroma_transport_connections"
	MTransportInflight   = "pleroma_transport_inflight_requests"
	// Pipelined data path instruments. MTransportWriteBatchFrames samples
	// how many queued frames each writer wakeup drained into one syscall;
	// MTransportFlushes counts bufio flushes by reason ("idle", "close");
	// MTransportFrameBytes samples encoded frame sizes (the histogram the
	// buffer-pool size classes were chosen against); MTransportPublishWindow
	// gauges the client's in-flight window occupancy (unanswered requests
	// of every kind, pipelined publishes among them);
	// MTransportPublishCoalesced samples events packed per coalesced
	// PublishReq; MTransportDeliverBatch samples deliveries
	// packed per KindDeliverBatch frame; MTransportDeliveriesDropped counts
	// deliveries the server produced for a connection that was gone (severed,
	// closed or failed) when their frame was to be queued.
	MTransportWriteBatchFrames  = "pleroma_transport_write_batch_frames"
	MTransportFlushes           = "pleroma_transport_flushes_total"
	MTransportFrameBytes        = "pleroma_transport_frame_bytes"
	MTransportPublishWindow     = "pleroma_transport_publish_window"
	MTransportPublishCoalesced  = "pleroma_transport_publish_coalesced_events"
	MTransportDeliverBatch      = "pleroma_transport_deliver_batch_events"
	MTransportDeliveriesDropped = "pleroma_transport_deliveries_dropped_total"
	// MDeliveryLatencyByTree / MDeliveryLatencyByPartition break the
	// publish→delivery (simulated) latency down by dissemination tree and
	// by the publisher's controller partition.
	MDeliveryLatencyByTree      = "pleroma_delivery_latency_tree_seconds"
	MDeliveryLatencyByPartition = "pleroma_delivery_latency_partition_seconds"
	// MDeliveryHops is the switch-hop-count histogram of delivered events.
	MDeliveryHops = "pleroma_delivery_hops"
	// MDeliveryWallLatency is the real (wall-clock) publish→delivery
	// latency histogram for publishes that carried an origin wall stamp.
	// Stamp and observation may come from different processes: across
	// machines the value includes clock skew (see DESIGN.md §7).
	MDeliveryWallLatency = "pleroma_delivery_wall_latency_seconds"
	// MClientDeliveryWallLatency is the client-side wall-clock
	// publish→delivery latency: stamped at publish and observed at
	// delivery receipt by the same process, so it is skew-free and
	// includes both transport crossings.
	MClientDeliveryWallLatency = "pleroma_client_delivery_wall_latency_seconds"
)

// DefaultHopBuckets spans the hop counts of data-center topologies (a
// fat-tree delivery crosses at most a handful of switches).
var DefaultHopBuckets = []int{1, 2, 3, 4, 5, 6, 8, 12, 16}

// DefaultLatencyBuckets spans the µs-to-seconds range control and delivery
// latencies live in.
var DefaultLatencyBuckets = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, time.Second,
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds delta.
func (c *Counter) Add(delta uint64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// NewGauge returns a zeroed gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add shifts the value by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket duration histogram safe for concurrent
// observation: bucket i counts samples below Bounds[i], with an implicit
// overflow bucket above the last bound.
type Histogram struct {
	bounds    []time.Duration
	counts    []atomic.Uint64 // len(bounds)+1; last is overflow
	count     atomic.Uint64
	sum       atomic.Int64 // nanoseconds
	countUnit bool         // bounds are plain integers, not durations
}

// NewHistogram builds a histogram over the given bucket upper bounds
// (sorted and deduplicated; DefaultLatencyBuckets when empty).
func NewHistogram(bounds ...time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	bs := append([]time.Duration(nil), bounds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			uniq = append(uniq, b)
		}
	}
	return &Histogram{bounds: uniq, counts: make([]atomic.Uint64, len(uniq)+1)}
}

// NewCountHistogram builds a histogram over unitless integer bucket upper
// bounds (hop counts, queue depths; DefaultHopBuckets when empty).
// Samples are recorded with ObserveCount, and the Prometheus exposition
// renders le bounds and _sum as plain numbers rather than seconds.
func NewCountHistogram(bounds ...int) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultHopBuckets
	}
	ds := make([]time.Duration, len(bounds))
	for i, b := range bounds {
		ds[i] = time.Duration(b)
	}
	h := NewHistogram(ds...)
	h.countUnit = true
	return h
}

// ObserveCount records one unitless integer sample (count histograms).
func (h *Histogram) ObserveCount(n int) { h.Observe(time.Duration(n)) }

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && d >= h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// snapshot copies the histogram state (counts may lag count/sum by
// in-flight observations; each bucket is individually consistent).
func (h *Histogram) snapshot() *HistSnapshot {
	s := &HistSnapshot{
		Bounds:    append([]time.Duration(nil), h.bounds...),
		Counts:    make([]uint64, len(h.counts)),
		Count:     h.count.Load(),
		Sum:       time.Duration(h.sum.Load()),
		CountUnit: h.countUnit,
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is the collected state of one histogram: Counts[i] holds
// samples below Bounds[i], the final entry the overflow.
type HistSnapshot struct {
	Bounds []time.Duration
	Counts []uint64
	Count  uint64
	Sum    time.Duration
	// CountUnit marks unitless integer bounds (NewCountHistogram): the
	// exposition renders them as plain numbers instead of seconds.
	CountUnit bool
}

// merge adds another snapshot bucket-wise (equal bounds assumed; extra
// buckets on either side are ignored).
func (s *HistSnapshot) merge(o *HistSnapshot) {
	for i := range s.Counts {
		if i < len(o.Counts) {
			s.Counts[i] += o.Counts[i]
		}
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts by
// linear interpolation inside the winning bucket — the same estimate
// Prometheus's histogram_quantile computes. Samples in the overflow bucket
// report the last finite bound. Returns 0 on an empty histogram.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	if s == nil || s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	cum := uint64(0)
	for i, b := range s.Bounds {
		n := s.Counts[i]
		if float64(cum)+float64(n) >= target {
			lo := time.Duration(0)
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			if n == 0 {
				return b
			}
			frac := (target - float64(cum)) / float64(n)
			return lo + time.Duration(frac*float64(b-lo))
		}
		cum += n
	}
	return s.Bounds[len(s.Bounds)-1]
}

// instrument is a *Counter, *Gauge or *Histogram: what Registry.Attach
// exposes and what a Vec holds.
type instrument interface {
	// kind is the instrument's exposition type.
	kind() string
	// collect adds the instrument's state to c under one label value.
	collect(c *collection, label string)
}

func (*Counter) kind() string   { return KindCounter }
func (*Gauge) kind() string     { return KindGauge }
func (*Histogram) kind() string { return KindHistogram }

func (c *Counter) collect(col *collection, label string) { col.vals[label] += float64(c.Value()) }
func (g *Gauge) collect(col *collection, label string)   { col.vals[label] += float64(g.Value()) }

func (h *Histogram) collect(col *collection, label string) {
	s := h.snapshot()
	if prev, ok := col.hists[label]; ok {
		prev.merge(s)
	} else {
		col.hists[label] = s
	}
}

// Vec is a set of instruments of one kind keyed by one label: a string (an
// op, a flush reason) or an integer id (a switch, a tree, a partition),
// which is rendered in decimal only when the vec is collected. Members are
// made by the vec's constructor on first use.
type Vec[K comparable, I instrument] struct {
	fresh func() I
	mu    sync.RWMutex
	m     map[K]I
}

// NewVec returns an empty vec whose members fresh makes, e.g.
// NewVec[topo.NodeID](obs.NewCounter).
func NewVec[K comparable, I instrument](fresh func() I) *Vec[K, I] {
	return &Vec[K, I]{fresh: fresh, m: make(map[K]I)}
}

// With returns the member for one key, creating it on first use (nil on a
// nil vec).
func (v *Vec[K, I]) With(key K) I {
	if v == nil {
		var none I
		return none
	}
	v.mu.RLock()
	i, ok := v.m[key]
	v.mu.RUnlock()
	if ok {
		return i
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if i, ok = v.m[key]; !ok {
		i = v.fresh()
		v.m[key] = i
	}
	return i
}

// Delete removes one member (e.g. a dismantled tree's gauge).
func (v *Vec[K, I]) Delete(key K) {
	if v == nil {
		return
	}
	v.mu.Lock()
	delete(v.m, key)
	v.mu.Unlock()
}

func (v *Vec[K, I]) kind() string {
	var member I
	return member.kind()
}

// collectAll adds every member to c under its key's label value.
func (v *Vec[K, I]) collectAll(c *collection) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for k, i := range v.m {
		i.collect(c, fmt.Sprint(k))
	}
}

// labelled is a *Vec of any key and member type: what Registry.AttachVec
// exposes.
type labelled interface {
	kind() string
	collectAll(c *collection)
}

// metric kinds in the exposition.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// family aggregates every instrument attached under one metric name.
type family struct {
	name, help, kind string
	label            string              // label name; "" for unlabelled metrics
	parts            []func(*collection) // one per attachment
}

// Registry is a concurrent metrics registry: components attach their
// instruments under canonical names, and Snapshot/WritePrometheus collect
// them on demand. Attaching is expected at setup time but is safe at any
// point; collection never blocks instrument updates (instruments are
// atomic).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// Attach exposes an existing counter, gauge or histogram (not nil) under
// name, unlabelled. Attachments under one name are summed at collection
// time; the first one fixes the family's help and kind.
func (r *Registry) Attach(name, help string, inst instrument) {
	r.attach(name, help, inst.kind(), "", func(c *collection) { inst.collect(c, "") })
}

// AttachVec exposes every member of a vec (not nil) under name, each
// labelled label="<its key>". Members of several vecs under one name and
// key are summed at collection time.
func (r *Registry) AttachVec(name, help, label string, v labelled) {
	r.attach(name, help, v.kind(), label, v.collectAll)
}

func (r *Registry) attach(name, help, kind, label string, part func(*collection)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, label: label}
		r.fams[name] = f
	}
	f.parts = append(f.parts, part)
}

// Counter creates a counter and attaches it under name. On a nil registry
// the counter is created but exported nowhere.
func (r *Registry) Counter(name, help string) *Counter {
	c := NewCounter()
	r.Attach(name, help, c)
	return c
}

// Gauge creates a gauge and attaches it under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := NewGauge()
	r.Attach(name, help, g)
	return g
}

// Histogram creates a histogram over bounds (DefaultLatencyBuckets when
// empty) and attaches it under name.
func (r *Registry) Histogram(name, help string, bounds ...time.Duration) *Histogram {
	h := NewHistogram(bounds...)
	r.Attach(name, help, h)
	return h
}

// Sample is one collected time series of a family.
type Sample struct {
	// LabelValue is the value of the family's label ("" when unlabelled).
	LabelValue string
	// Value holds counter/gauge samples.
	Value float64
	// Hist holds histogram samples (nil otherwise).
	Hist *HistSnapshot
}

// Family is the collected state of one metric name.
type Family struct {
	Name, Help, Kind string
	// Label is the label name shared by the family's samples ("" when
	// unlabelled).
	Label   string
	Samples []Sample
}

// Snapshot is a point-in-time collection of every attached instrument.
type Snapshot struct {
	Families []Family
}

// Snapshot collects all families, sorted by name, samples sorted by label
// value (numeric label values sort numerically so switch/tree series read
// in order).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	snap := Snapshot{Families: make([]Family, 0, len(fams))}
	for _, f := range fams {
		snap.Families = append(snap.Families, f.collect())
	}
	return snap
}

// collection accumulates one family's samples by label value.
type collection struct {
	vals  map[string]float64
	hists map[string]*HistSnapshot
}

// collect merges every attachment of the family into per-label samples.
func (f *family) collect() Family {
	out := Family{Name: f.name, Help: f.help, Kind: f.kind, Label: f.label}
	c := collection{vals: make(map[string]float64), hists: make(map[string]*HistSnapshot)}
	for _, part := range f.parts {
		part(&c)
	}
	labels := make([]string, 0, len(c.vals)+len(c.hists))
	for l := range c.vals {
		labels = append(labels, l)
	}
	for l := range c.hists {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labelLess(labels[i], labels[j]) })
	for _, l := range labels {
		if h, ok := c.hists[l]; ok {
			out.Samples = append(out.Samples, Sample{LabelValue: l, Hist: h})
		} else {
			out.Samples = append(out.Samples, Sample{LabelValue: l, Value: c.vals[l]})
		}
	}
	return out
}

// labelLess orders label values numerically when both parse as integers
// (switch and tree ids), lexicographically otherwise.
func labelLess(a, b string) bool {
	ai, aerr := strconv.Atoi(a)
	bi, berr := strconv.Atoi(b)
	if aerr == nil && berr == nil {
		return ai < bi
	}
	return a < b
}

// Counter returns the summed value of a counter family's label-value
// series ("" for unlabelled) and whether the series exists.
func (s Snapshot) Counter(name, labelValue string) (float64, bool) {
	return s.value(name, labelValue)
}

// Gauge returns the value of a gauge family's label-value series.
func (s Snapshot) Gauge(name, labelValue string) (float64, bool) {
	return s.value(name, labelValue)
}

func (s Snapshot) value(name, labelValue string) (float64, bool) {
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, smp := range f.Samples {
			if smp.LabelValue == labelValue {
				return smp.Value, true
			}
		}
	}
	return 0, false
}

// Total sums every sample of one family (all label values).
func (s Snapshot) Total(name string) float64 {
	var t float64
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, smp := range f.Samples {
			t += smp.Value
		}
	}
	return t
}

// Histograms returns a histogram family's samples by label value ("" for
// unlabelled), nil when the family does not exist.
func (s Snapshot) Histograms(name string) map[string]*HistSnapshot {
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		out := make(map[string]*HistSnapshot, len(f.Samples))
		for _, smp := range f.Samples {
			out[smp.LabelValue] = smp.Hist
		}
		return out
	}
	return nil
}

// ContentType is the Prometheus text exposition content type served by
// the /metrics endpoint.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Histograms emit cumulative _bucket series plus
// _sum and _count; durations are exported in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	for _, f := range snap.Families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Kind); err != nil {
			return err
		}
		for _, smp := range f.Samples {
			if smp.Hist != nil {
				if err := writeHist(w, f, smp); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, labelPair(f.Label, smp.LabelValue), formatFloat(smp.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHist(w io.Writer, f Family, smp Sample) error {
	h := smp.Hist
	// Duration histograms export in seconds; count-unit histograms (hop
	// counts) export their bounds and sum as plain numbers.
	scale := func(d time.Duration) float64 {
		if h.CountUnit {
			return float64(d)
		}
		return d.Seconds()
	}
	cum := uint64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		le := formatFloat(scale(b))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, bucketLabels(f.Label, smp.LabelValue, le), cum); err != nil {
			return err
		}
	}
	if len(h.Counts) > 0 {
		cum += h.Counts[len(h.Counts)-1]
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, bucketLabels(f.Label, smp.LabelValue, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, labelPair(f.Label, smp.LabelValue), formatFloat(scale(h.Sum))); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, labelPair(f.Label, smp.LabelValue), h.Count)
	return err
}

// labelPair renders {name="value"} or "" when the family is unlabelled.
func labelPair(name, value string) string {
	if name == "" {
		return ""
	}
	return "{" + name + `="` + escapeLabel(value) + `"}`
}

// bucketLabels renders the label set of one histogram bucket including le.
func bucketLabels(name, value, le string) string {
	if name == "" {
		return `{le="` + le + `"}`
	}
	return "{" + name + `="` + escapeLabel(value) + `",le="` + le + `"}`
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatFloat renders a sample value with full precision.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
