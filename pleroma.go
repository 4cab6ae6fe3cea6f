// Package pleroma is the public API of the PLEROMA middleware
// reproduction: software-defined-networking-based content pub/sub in which
// subscriptions compile into TCAM flow rules (IPv6-prefix matches over
// dz-encoded subspaces) and a per-partition controller reconfigures the
// network as publishers and subscribers come and go.
//
// A System bundles an emulated SDN deployment: a topology, its data plane,
// and one PLEROMA controller per partition, all driven by a deterministic
// simulated clock. Typical use:
//
//	sch, _ := pleroma.NewSchema(
//	    pleroma.Attribute{Name: "price", Bits: 10},
//	    pleroma.Attribute{Name: "volume", Bits: 10},
//	)
//	sys, _ := pleroma.NewSystem(sch)
//	hosts := sys.Hosts()
//
//	pub, _ := sys.NewPublisher("ticker", hosts[0])
//	_ = pub.Advertise(pleroma.NewFilter()) // whole event space
//
//	_, _ = sys.Subscribe("alerts", hosts[7],
//	    pleroma.NewFilter().Range("price", 0, 99),
//	    func(d pleroma.Delivery) { fmt.Println("got", d.Event) })
//
//	_ = pub.Publish(42, 1000)
//	sys.Run() // drain the simulated network
//
// A System and everything attached to it runs on a single simulated clock
// and is not safe for concurrent use; drive it from one goroutine.
package pleroma

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"pleroma/internal/core"
	"pleroma/internal/dimsel"
	"pleroma/internal/dz"
	"pleroma/internal/interdomain"
	"pleroma/internal/ipmc"
	"pleroma/internal/netem"
	"pleroma/internal/obs"
	"pleroma/internal/sim"
	"pleroma/internal/sim/shard"
	"pleroma/internal/space"
	"pleroma/internal/topo"
	"pleroma/internal/transport"
	"pleroma/internal/wire"
)

// Re-exported content-model types.
type (
	// Attribute describes one dimension of the event space.
	Attribute = space.Attribute
	// Filter is a conjunction of per-attribute range constraints; it is
	// the content form of subscriptions and advertisements.
	Filter = space.Filter
	// Event is one published attribute-value tuple.
	Event = space.Event
	// Schema is the ordered attribute set of the event space.
	Schema = space.Schema
	// HostID identifies an end host of the deployment.
	HostID = topo.NodeID
	// Delivery is one event handed to a subscriber, in process or over
	// TCP alike.
	Delivery = wire.Delivery
)

// NewSchema builds an event-space schema from attributes.
func NewSchema(attrs ...Attribute) (*Schema, error) { return space.NewSchema(attrs...) }

// NewFilter returns an empty (match-everything) filter; add constraints
// with Filter.Range.
func NewFilter() Filter { return space.NewFilter() }

// Topology selects the emulated network layout.
type Topology int

// Available topologies.
const (
	// TopologyTestbedFatTree is the paper's 10-switch/8-host testbed
	// (Figure 6). The default.
	TopologyTestbedFatTree Topology = iota + 1
	// TopologyFatTree20 is the 20-switch Mininet fat-tree.
	TopologyFatTree20
	// TopologyRing20 is the 20-switch Mininet ring.
	TopologyRing20
)

// Option configures a System.
type Option func(*config)

type config struct {
	topology      Topology
	partitions    int
	maxDzLen      int
	maxSubs       int
	linkParams    topo.LinkParams
	hostCap       int
	inBandDelay   time.Duration
	reindexEvery  time.Duration
	reindexThresh float64
	// shards selects the parallel simulation engine (see WithShards);
	// values <= 1 keep the classic single-engine path.
	shards int
	// fatTree, when set, overrides topology with a custom pod fat-tree
	// (see WithFatTree).
	fatTree *fatTreeShape
	// faults, when set, interposes a fault-injection layer between the
	// controllers and the switches (see WithSouthboundFaults).
	faults *netem.FaultConfig
	// retry, when set, overrides the controllers' southbound retry policy.
	retry *core.RetryPolicy
	// journal enables controller HA: per-partition op journals plus the
	// Snapshot/Restore/Failover surface (see WithJournal in ha.go).
	journal bool
	// journalDir makes the HA journals file-backed (see WithJournalDir in
	// network.go); implies journal.
	journalDir string
	// listenAddr makes the system serve its control surface over TCP (see
	// WithListener in network.go).
	listenAddr string
	// transport tunes the TCP data path (see WithTransport in network.go).
	transport transport.Options
	// obsEnabled/obsTraceCap/obsTraceSink configure the observability
	// layer (see WithObservability in observability.go).
	obsEnabled   bool
	obsTraceCap  int
	obsTraceSink *slog.Logger
}

// WithTopology selects the emulated network layout.
func WithTopology(t Topology) Option { return func(c *config) { c.topology = t } }

// WithPartitions splits the network into n independently controlled
// partitions (Section 4). Only ring and fat-tree topologies support n>1.
func WithPartitions(n int) Option { return func(c *config) { c.partitions = n } }

// WithMaxDzLen bounds the dz bits embedded in flow matches (L_dz).
func WithMaxDzLen(n int) Option { return func(c *config) { c.maxDzLen = n } }

// WithMaxSubspaces caps the DZ set size per subscription/advertisement.
func WithMaxSubspaces(n int) Option { return func(c *config) { c.maxSubs = n } }

// WithLinkParams overrides the physical link model.
func WithLinkParams(p topo.LinkParams) Option { return func(c *config) { c.linkParams = p } }

// WithHostCapacity bounds every host's event ingestion rate (events/s);
// zero means unlimited.
func WithHostCapacity(eventsPerSec int) Option {
	return func(c *config) { c.hostCap = eventsPerSec }
}

// WithInBandSignalling makes control requests travel the data plane as
// IP_vir packets punted to the controller (Section 2 of the paper),
// taking effect only after the network path plus the given controller
// processing delay of simulated time. Off by default: requests apply
// synchronously, modelling an idealised out-of-band control channel.
// Under WithShards the request applies on the coordinator's control
// engine, with every shard idle, and the synchronization lookahead is
// capped just below the processing delay.
func WithInBandSignalling(processingDelay time.Duration) Option {
	return func(c *config) { c.inBandDelay = processingDelay }
}

type fatTreeShape struct{ pods, cores, hostsPerEdge int }

// WithFatTree replaces the topology with a custom pod-based fat-tree:
// pods pods of 2 aggregation + 2 edge switches, cores core switches, and
// hostsPerEdge hosts per edge switch — the knob for the scale regimes the
// fixed topologies cannot reach (e.g. WithFatTree(8, 8, 2): 40 switches,
// 32 hosts). Takes precedence over WithTopology.
func WithFatTree(pods, cores, hostsPerEdge int) Option {
	return func(c *config) { c.fatTree = &fatTreeShape{pods, cores, hostsPerEdge} }
}

// WithShards runs the simulation on n parallel shard engines under
// conservative lookahead synchronization: the topology is partitioned
// into contiguous regions (hosts stay with their switch), each region
// executes on its own engine/goroutine, and cross-region packet hops are
// exchanged at barrier windows bounded by the minimum inter-region link
// latency. Delivery multisets and counters match the single-engine run:
// the protocol never reorders events within a shard and cross-shard hops
// arrive at their exact simulated instants. When distinct packets contend
// at the same simulated instant (a serialization slot on a shared link),
// the tie may resolve in a different order than the single-engine
// schedule — permuting timestamps among the tied packets but leaving
// contents and totals unchanged; if such a tie races for the last place
// in a bounded queue, which of the tied packets is dropped may differ as
// well. For a fixed shard count, runs are bit-for-bit deterministic.
//
// n <= 1 (the default) keeps the classic single-engine path, and n is
// clamped to the number of switches. With n > 1, subscription handlers
// run on shard worker goroutines — at most one per host at a time, but
// handlers for hosts on different shards run concurrently and must
// synchronize shared state — and publishing is only legal between Run
// calls, not from inside handlers. Control work on the simulated clock —
// in-band requests (WithInBandSignalling) and periodic re-indexing
// (WithAutoReindex) — runs on the coordinator's control engine: on the
// goroutine driving Run, at a barrier with every shard idle, after every
// event before its instant and before every event at or after it.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// Errors the public API can return.
var (
	// ErrNotAdvertised is returned when publishing without a prior
	// advertisement (the paper requires advertisements before events).
	ErrNotAdvertised = errors.New("pleroma: publisher has not advertised")
	// ErrUnknownSubscription is returned for operations on missing ids.
	ErrUnknownSubscription = errors.New("pleroma: unknown subscription")
)

// System is one emulated PLEROMA deployment.
type System struct {
	cfg config
	sch *Schema
	g   *topo.Graph
	eng *sim.Engine
	// coord drives parallel shard execution; nil with WithShards(1).
	coord *shard.Coordinator
	dp    *netem.DataPlane
	fab   *interdomain.Fabric
	// faulty is the interposed fault-injection layer; nil without
	// WithSouthboundFaults.
	faulty *netem.FaultyProgrammer
	subs   map[string]*subState
	// hosts is each host's subscription list and demux index (demux.go),
	// indexed by HostID like hostPart.
	hosts []hostDemux
	pubs  map[string]*Publisher
	// regSeq numbers advertisements and subscriptions in registration
	// order, the order a re-index replays them in.
	regSeq uint64
	// proj is the active dimension selection (nil = full space).
	proj *projection

	// window is a ring of recent events for dimension selection: once
	// full, winStart marks the oldest slot and new events overwrite in
	// place (O(1) per publish). winTotal counts every event ever recorded.
	window   []Event
	winStart int
	winTotal uint64
	// periodic re-selection state (Section 5's adaptation loop).
	reindexArmed  bool
	reindexSeen   uint64
	reindexRounds int

	// Networked deployment surface (nil without WithListener; see
	// network.go).
	server *transport.Server
	lnAddr net.Addr

	// Observability (nil without WithObservability; see observability.go).
	reg    *obs.Registry
	tracer *obs.Tracer
	// Facade-level delivery instruments; nil-safe no-ops when disabled.
	obsDemuxCandidates *obs.Counter
	obsDeliveries      *obs.Counter
	obsFalsePositives  *obs.Counter
	obsDeliveryLatency *obs.Histogram
	// lat is the delivery-latency instrument family (per-tree and
	// per-partition histograms, hop counts, wall latency, slowest ring);
	// nil without WithObservability.
	lat *obs.DeliveryLatency

	// ready is what /readyz reports while no switch is quarantined
	// (systemHealth.Ready): set once NewSystem has built the
	// deployment (and, with WithListener, the listener accepts), cleared
	// while Recover, Restore or Failover swap a controller (see unready) and
	// for good by StopListener on a system that listened (draining) and by
	// Close.
	ready atomic.Bool

	// stampPubs enables origin-stamping publications (observability or a
	// TCP listener); without either, publishes skip the tree lookup and
	// wall-clock read entirely.
	stampPubs bool
	// hostPart caches each host's controller partition (-1 unknown) so
	// per-publish stamping avoids the fabric lookup.
	hostPart []int32
}

// subState is the control path's record of a subscription. What the delivery
// path reads of it — slot, rectangle, handler — is in its host's hostDemux,
// under cell.
type subState struct {
	id   string
	host HostID
	set  dz.Set // truncated DZ region, indexed for demultiplexing
	// seq is the registration sequence number (System.regSeq).
	seq uint64
	// cell is the subscription's index into its host's demux arrays.
	cell int32
}

// NewSystem builds a deployment over the given schema.
func NewSystem(sch *Schema, opts ...Option) (*System, error) {
	if sch == nil {
		return nil, fmt.Errorf("pleroma: nil schema")
	}
	cfg := config{
		topology:   TopologyTestbedFatTree,
		partitions: 1,
		maxDzLen:   24,
		maxSubs:    16,
		linkParams: topo.DefaultLinkParams,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.maxDzLen <= 0 || cfg.maxSubs <= 0 {
		return nil, fmt.Errorf("pleroma: maxDzLen and maxSubspaces must be positive")
	}

	var (
		g   *topo.Graph
		err error
	)
	switch {
	case cfg.fatTree != nil:
		ft := cfg.fatTree
		g, err = topo.FatTree(ft.pods, ft.cores, ft.hostsPerEdge, cfg.linkParams)
		if err == nil && cfg.partitions > 1 {
			err = topo.PartitionFatTree(g, cfg.partitions)
		}
	case cfg.topology == TopologyTestbedFatTree:
		g, err = topo.TestbedFatTree(cfg.linkParams)
		if err == nil && cfg.partitions > 1 {
			err = fmt.Errorf("pleroma: testbed fat-tree supports a single partition")
		}
	case cfg.topology == TopologyFatTree20:
		g, err = topo.FatTree(4, 4, 1, cfg.linkParams)
		if err == nil && cfg.partitions > 1 {
			err = topo.PartitionFatTree(g, cfg.partitions)
		}
	case cfg.topology == TopologyRing20:
		g, err = topo.Ring(20, cfg.linkParams)
		if err == nil {
			err = topo.PartitionRing(g, cfg.partitions)
		}
	default:
		err = fmt.Errorf("pleroma: unknown topology %d", int(cfg.topology))
	}
	if err != nil {
		return nil, err
	}

	// Parallel shard engine (WithShards). The coordinator owns one engine
	// per shard; the data plane is built on shard 0's engine so single
	// mode and shard 0 are the same code path.
	var coord *shard.Coordinator
	var eng *sim.Engine
	var assign []int32
	if cfg.shards > 1 {
		var n int
		assign, n = topo.ShardNodes(g, cfg.shards)
		lookahead, _ := topo.MinCutLatency(g, assign)
		if cfg.inBandDelay > 0 && lookahead >= cfg.inBandDelay {
			// A punt at t applies its request at t + delay, on the control
			// engine: that must land after the window the punt ran in.
			lookahead = cfg.inBandDelay - 1
		}
		coord, err = shard.New(n, lookahead)
		if err != nil {
			return nil, fmt.Errorf("pleroma: %w", err)
		}
		eng = coord.Engine(0)
	} else {
		eng = sim.NewEngine()
	}
	dp := netem.New(g, eng)
	if coord != nil {
		if err := dp.EnableSharding(coord, assign); err != nil {
			coord.Close()
			return nil, err
		}
	}
	reg, tracer := cfg.initObservability()
	var fabOpts []interdomain.Option
	var faulty *netem.FaultyProgrammer
	if cfg.faults != nil {
		faulty = netem.WithFaults(dp, *cfg.faults)
		fabOpts = append(fabOpts, interdomain.WithFlowProgrammer(faulty))
	}
	if cfg.retry != nil {
		fabOpts = append(fabOpts, interdomain.WithControllerOptions(core.WithRetryPolicy(*cfg.retry)))
	}
	if reg != nil {
		fabOpts = append(fabOpts, interdomain.WithObservability(reg, tracer))
	}
	if cfg.journal {
		var open func(partition int) (*core.Journal, error)
		if cfg.journalDir != "" {
			open = func(partition int) (*core.Journal, error) {
				return core.OpenFileJournal(JournalPath(cfg.journalDir, partition))
			}
		}
		fabOpts = append(fabOpts, interdomain.WithHA(open))
	}
	fab, err := interdomain.NewFabric(g, dp, fabOpts...)
	if err != nil {
		return nil, err
	}
	sys := &System{
		cfg:    cfg,
		sch:    sch,
		g:      g,
		eng:    eng,
		coord:  coord,
		dp:     dp,
		fab:    fab,
		faulty: faulty,
		reg:    reg,
		tracer: tracer,
		subs:   make(map[string]*subState),
		hosts:  make([]hostDemux, g.NumNodes()),
		pubs:   make(map[string]*Publisher),
	}
	for i := range sys.hosts {
		sys.hosts[i].dims = sch.Dims()
	}
	if reg != nil {
		dp.Instrument(reg)
		if coord != nil {
			coord.Instrument(reg)
		}
		if faulty != nil {
			faulty.Instrument(reg)
		}
		sys.instrumentDispatch()
	}
	if reg != nil || cfg.listenAddr != "" {
		sys.enableStamping()
	}
	for _, h := range g.Hosts() {
		h := h
		hc := netem.HostConfig{CapacityPerSec: cfg.hostCap}
		if err := dp.ConfigureHost(h, hc, func(d netem.Delivery) {
			sys.dispatch(h, d)
		}); err != nil {
			return nil, err
		}
	}
	if cfg.inBandDelay > 0 {
		fab.EnableInBandSignalling(cfg.inBandDelay)
	}
	if cfg.listenAddr != "" {
		if err := sys.startListener(cfg.listenAddr); err != nil {
			sys.Close()
			return nil, err
		}
	}
	sys.ready.Store(true)
	return sys, nil
}

// control routes one request either as an in-band IP_vir packet (taking
// effect asynchronously in simulated time) or synchronously against the
// fabric.
func (s *System) control(req interdomain.SignalRequest) error {
	if s.cfg.inBandDelay > 0 {
		return s.fab.SendSignal(req)
	}
	return s.fab.Apply(req)
}

// Hosts returns the end hosts of the deployment.
func (s *System) Hosts() []HostID { return s.g.Hosts() }

// Schema returns the event-space schema.
func (s *System) Schema() *Schema { return s.sch }

// Now returns the current simulated time.
func (s *System) Now() time.Duration {
	if s.coord != nil {
		return s.coord.Now()
	}
	return s.eng.Now()
}

// Run drains all pending simulated work and returns the final time. With
// shards enabled this is the coordinator's parallel barrier drain.
func (s *System) Run() time.Duration { return s.dp.Run() }

// RunFor advances the simulation by d.
func (s *System) RunFor(d time.Duration) time.Duration {
	return s.dp.RunUntil(s.Now() + d)
}

// Shards returns the number of parallel simulation shards (1 without
// WithShards).
func (s *System) Shards() int {
	if s.coord == nil {
		return 1
	}
	return s.coord.Shards()
}

// Close releases the shard worker goroutines of a WithShards(n>1)
// system and closes the journal files of a WithJournalDir one. The system
// must not be used afterwards. Optional — an abandoned system is reaped by
// a finalizer — but deterministic cleanup keeps goroutine-leak checkers
// quiet. Safe to call on any system, idempotent, and safe to call
// concurrently (e.g. racing the finalizer path or a deferred double-Close).
func (s *System) Close() {
	s.ready.Store(false)
	if s.server != nil {
		s.server.Stop()
	}
	s.fab.Close()
	if s.coord != nil {
		s.coord.Close()
	}
}

// dispatch routes a data-plane delivery to the matching subscriptions on
// the host: one lookup in the host's dz index (kernel-level demux), then
// one handler call per match.
//
// The matches are collected before any handler runs, which fixes what a
// handler may do to the registrations under it: a packet goes to the
// subscriptions that were registered on the host when it arrived, in
// registration-slot order, skipping any that was unsubscribed before its
// turn and never reaching one twice; a subscription added by a handler does
// not see the packet in flight.
func (s *System) dispatch(host HostID, d netem.Delivery) {
	// Control frames (LLDP probes, signalling) and malformed payloads are
	// not events; hosts drop them silently.
	if d.Packet.Control != nil || len(d.Packet.Event.Values) != s.sch.Dims() {
		return
	}
	key := d.Packet.Key.Prefix(s.cfg.maxDzLen)
	h := &s.hosts[host]
	matches, visited := h.lookup(key)
	s.obsDemuxCandidates.Add(uint64(visited))
	if len(matches) == 0 {
		return
	}
	// The scratch list is off the host while handlers run, so a handler
	// that drives the simulation cannot have it overwritten underneath.
	h.matches = nil
	h.enter()
	stamp := d.Packet.Stamp
	// One wall-clock read per packet, only for stamped publishes with a
	// consumer (the latency family or a traced delivery to hand out).
	var wall time.Duration
	if stamp.OriginWall != 0 && (s.lat != nil || stamp.TraceID != 0) {
		wall = time.Duration(time.Now().UnixNano() - stamp.OriginWall)
	}
	for _, m := range matches {
		cell := int32(uint32(m))
		c := &h.cells[cell]
		if c.slot < 0 {
			continue // unsubscribed by an earlier handler of this packet
		}
		fp := !dz.RectContainsPoint(h.rect(cell), d.Packet.Event.Values)
		// A copy: a handler that subscribes may grow the array under it.
		sink := c.sink
		lat := d.At - d.Packet.SentAt
		h.deliveries++
		s.obsDeliveries.Inc()
		s.obsDeliveryLatency.Observe(lat)
		if fp {
			h.falsePositives++
			s.obsFalsePositives.Inc()
		}
		if s.lat != nil {
			tree, part := int64(stamp.Tree), int64(stamp.Partition)
			if stamp.OriginWall == 0 {
				// Unstamped packet (direct data-plane injection): no
				// tree/partition knowledge, only hops and latency.
				tree, part = -1, -1
			} else if stamp.Tree == 0 {
				tree = -1 // stamped but no owning tree resolved
			}
			s.lat.Record(obs.DeliverySample{
				TraceID:        stamp.TraceID,
				SubscriptionID: sink.id,
				Tree:           tree,
				Partition:      part,
				Latency:        lat,
				WallLatency:    wall,
				Hops:           int(d.Packet.Hops),
				At:             d.At,
				FalsePositive:  fp,
			})
		}
		// A traced publish gets one delivery span per matched subscription,
		// parented to the publish span it arrived with. Untraced packets —
		// including every local benchmark publish — skip this entirely, so
		// the hot path stays allocation-free.
		var spanID uint64
		if s.tracer != nil && stamp.TraceID != 0 {
			sp := s.tracer.StartRemoteSpan(stamp.TraceID, stamp.SpanID, "deliver", sink.id)
			if sp != nil {
				sp.End(nil)
				spanID = sp.ID
			}
		}
		if sink.handler == nil {
			continue
		}
		sink.handler(Delivery{
			SubscriptionID: sink.id,
			Event:          d.Packet.Event,
			At:             d.At,
			Latency:        lat,
			FalsePositive:  fp,
			Hops:           int(d.Packet.Hops),
			TraceID:        stamp.TraceID,
			SpanID:         spanID,
			WallLatency:    wall,
			PubWallNanos:   stamp.OriginWall,
		})
	}
	h.leave()
	h.matches = matches[:0]
}

// enableStamping turns on publication origin-stamping and caches each
// host's controller partition so the per-publish lookup is a slice index.
// Called when observability or a TCP listener is configured; idempotent.
func (s *System) enableStamping() {
	s.stampPubs = true
	if s.hostPart != nil {
		return
	}
	hosts := s.g.Hosts()
	var max HostID
	for _, h := range hosts {
		if h > max {
			max = h
		}
	}
	hp := make([]int32, int(max)+1)
	for i := range hp {
		hp[i] = -1
	}
	for _, h := range hosts {
		if part, err := s.fab.HomePartition(h); err == nil {
			hp[h] = int32(part)
		}
	}
	s.hostPart = hp
}

// Publisher produces events from one host.
type Publisher struct {
	sys        *System
	id         string
	host       HostID
	advertised bool
	// advRect is the advertised region in the full event space, kept for
	// re-indexing.
	advRect dz.Rect
	// seq is the registration sequence number of the advertisement.
	seq uint64
	// lastPubSeq is the highest client publish sequence number the
	// transport backend applied through this advertisement — a retried
	// publish with a Seq at or below it has already been applied and is
	// acknowledged without re-injecting events.
	lastPubSeq uint64
	// pubScratch is a publish batch's publications (publishBatchTraced),
	// reused from batch to batch: the data plane copies each publication
	// into the packet slab, so none outlives the call, and a publisher is
	// driven by one goroutine. It is cleared after use and never grows past
	// wire.MaxEvents entries.
	pubScratch []netem.Publication
}

// NewPublisher registers a publisher on a host.
func (s *System) NewPublisher(id string, host HostID) (*Publisher, error) {
	if _, dup := s.pubs[id]; dup {
		return nil, fmt.Errorf("pleroma: duplicate publisher id %q", id)
	}
	if _, err := s.g.AttachedSwitch(host); err != nil {
		return nil, fmt.Errorf("pleroma: publisher host: %w", err)
	}
	p := &Publisher{sys: s, id: id, host: host}
	s.pubs[id] = p
	return p, nil
}

// Advertise announces the region of the event space this publisher will
// publish into. It must precede Publish. Repeating the live advertisement
// is a no-op, and a different one is refused.
func (p *Publisher) Advertise(f Filter) error { return p.sys.advertise(p.id, p.host, f) }

// Unadvertise withdraws the advertisement; Advertise may follow again.
func (p *Publisher) Unadvertise() error { return p.sys.unadvertise(p.id) }

// Publish injects one event (attribute values in schema order) into the
// network at the current simulated time. The event keeps a copy of values.
func (p *Publisher) Publish(values ...uint32) error {
	pb, err := p.admit(p.withOrigin(wire.TraceContext{}), Event{Values: slices.Clone(values)})
	if err != nil {
		return err
	}
	p.sys.recordEvent(pb.Event)
	p.sys.maybeArmReindex()
	pubs := [1]netem.Publication{pb}
	return p.sys.dp.PublishBatch(p.host, pubs[:])
}

// admit is the publish admission prologue, shared by the single and the
// batch path: the publisher must have advertised, the event must fit the
// schema, and the event is dz-encoded in the active index space under the
// L_dz bound and given its origin stamp. The dz is made here, once, as a
// packed key: the address, the stamp's tree lookup and the receiving hosts'
// demux all consume that key, and no expression string exists between here
// and a subscriber's handler. It injects nothing. The publication keeps
// ev.Values, which the caller hands over: the packet, the event window and
// every subscriber's delivery share them.
func (p *Publisher) admit(tc wire.TraceContext, ev Event) (netem.Publication, error) {
	if !p.advertised {
		return netem.Publication{}, ErrNotAdvertised
	}
	s := p.sys
	if err := s.sch.Check(ev.Values); err != nil {
		return netem.Publication{}, err
	}
	idxSch := s.indexSchema()
	maxLen := idxSch.Geometry().MaxLen()
	if s.cfg.maxDzLen < maxLen {
		maxLen = s.cfg.maxDzLen
	}
	if err := ipmc.CheckLen(maxLen); err != nil {
		// No event address can carry this dz. The data plane's expression
		// entry point used to say so, one layer down; the text is kept.
		return netem.Publication{}, fmt.Errorf("netem: publish: %w", err)
	}
	key, err := idxSch.EncodeKey(s.indexEvent(ev), maxLen)
	if err != nil {
		return netem.Publication{}, err
	}
	return netem.Publication{Key: key, Event: ev, Size: netem.DefaultPacketSize, Stamp: p.stampFor(key, tc)}, nil
}

// withOrigin gives a publish request its wall-clock origin instant: the
// remote publisher's own when the request carried one — so the stamp echoed
// back in the Deliver frame stays in the client's clock domain — and
// otherwise one read of the local clock for the whole request. The events
// of a batch already share one trace and one simulated instant; one origin
// instant says the same about wall time. No clock is read when stamping is
// off.
func (p *Publisher) withOrigin(tc wire.TraceContext) wire.TraceContext {
	if tc.PubWallNanos == 0 && p.sys.stampPubs {
		tc.PubWallNanos = time.Now().UnixNano()
	}
	return tc
}

// stampFor builds the data-plane origin stamp for one publication: the
// owning dissemination tree, the publisher's home partition, the request's
// wall-clock origin (withOrigin), and — on the transport path — the remote
// client's trace context. The zero stamp when stamping is disabled (no
// observability and no listener) keeps the default hot path free of the
// tree lookup.
func (p *Publisher) stampFor(key dz.Key, tc wire.TraceContext) netem.Stamp {
	s := p.sys
	if !s.stampPubs {
		return netem.Stamp{}
	}
	st := netem.Stamp{
		TraceID:    tc.TraceID,
		SpanID:     tc.SpanID,
		OriginWall: tc.PubWallNanos,
		Partition:  -1,
	}
	if int(p.host) < len(s.hostPart) {
		st.Partition = s.hostPart[p.host]
	}
	if st.Partition >= 0 {
		if ctl, err := s.fab.Controller(int(st.Partition)); err == nil {
			if id, ok := ctl.TreeFor(key); ok {
				st.Tree = int32(id)
			}
		}
	}
	return st
}

// PublishBatch injects a burst of events — one attribute-value tuple per
// event — at the current simulated time. All encoding happens up front and
// the data plane injects the whole burst in one call, so high-rate
// publishers (the throughput experiments) pay the per-call checks once.
// Deliveries, timestamps, and sequence numbers are identical to publishing
// the tuples one by one with Publish; on an encoding error nothing is
// injected, and an empty batch is a no-op. The events keep one copy of all
// the tuples, a block of the batch's own.
func (p *Publisher) PublishBatch(tuples ...[]uint32) error {
	n := 0
	for _, vals := range tuples {
		n += len(vals)
	}
	block := make([]uint32, 0, n)
	return p.publishBatchTraced(wire.TraceContext{}, len(tuples), func(i int) Event {
		base := len(block)
		block = append(block, tuples[i]...)
		// Capacity-clipped: appending to one event's values cannot write
		// into the next event's.
		return Event{Values: block[base:len(block):len(block)]}
	})
}

// publishBatchTraced admits and injects a batch of n events under one trace
// context: the remote client's on the transport path (a zero context when
// untraced), so every delivery joins its trace. event(i) returns the i-th
// event, whose values the publisher keeps (see admit).
func (p *Publisher) publishBatchTraced(tc wire.TraceContext, n int, event func(i int) Event) error {
	if n == 0 {
		return nil
	}
	tc = p.withOrigin(tc)
	pubs := p.pubScratch[:0]
	defer func() { p.pubScratch = keepScratch(pubs) }()
	for i := 0; i < n; i++ {
		pb, err := p.admit(tc, event(i))
		if err != nil {
			return err
		}
		pubs = append(pubs, pb)
	}
	for i := range pubs {
		p.sys.recordEvent(pubs[i].Event)
	}
	p.sys.maybeArmReindex()
	return p.sys.dp.PublishBatch(p.host, pubs)
}

// keepScratch returns a per-publisher scratch slice cleared — it pins nothing
// of the frame it served — and emptied for the next publish frame, or nil, to
// the GC, when one oversized batch grew it past what a publish frame can
// carry.
func keepScratch[T any](s []T) []T {
	if cap(s) > wire.MaxEvents {
		return nil
	}
	clear(s)
	return s[:0]
}

// The registration rule. A host's four control requests (§2: advertise,
// subscribe, unsubscribe, unadvertise) reach System.Subscribe,
// System.Unsubscribe, System.advertise and System.unadvertise from the
// in-process API and the TCP backend alike, and only these four apply them:
//
//   - a new id is created;
//   - an identical re-registration of a live id — same host, same
//     full-space rectangle — leaves control state, journal and digest
//     untouched: a subscription's handler is rebound (a reconnecting client
//     replays its registrations onto its new connection), an advertisement
//     is a no-op;
//   - a different re-registration is refused;
//   - an advertisement withdrawn by Unadvertise may be advertised again
//     under its id, from its publisher's host, and starts afresh: its
//     publish sequence numbers (Publisher.lastPubSeq) are forgotten;
//   - withdrawing an unknown id wraps ErrUnknownSubscription, and an
//     unknown or withdrawn advertisement ErrNotAdvertised.

// Subscribe registers a content subscription on a host; handler fires for
// every delivered event (with false-positive marking). Repeating a live
// subscription's host and filter rebinds its handler, and a different host
// or filter under its id is refused.
func (s *System) Subscribe(id string, host HostID, f Filter, handler func(Delivery)) error {
	rect, err := s.sch.Rect(f)
	if err != nil {
		return err
	}
	if st := s.subs[id]; st != nil {
		if st.host != host || !slices.Equal(s.rectOf(st), rect) {
			return reregistered(wire.OpSubscribe, id)
		}
		s.hosts[host].setHandler(st, handler)
		return nil
	}
	set, err := s.decomposeRect(rect)
	if err != nil {
		return err
	}
	if err := s.control(interdomain.SignalRequest{Op: wire.OpSubscribe, ID: id, Host: host, Set: set}); err != nil {
		return err
	}
	st := &subState{id: id, host: host, set: set, seq: s.nextSeq()}
	s.subs[id] = st
	s.hosts[host].attach(st, rect, handler)
	return nil
}

// Unsubscribe withdraws a subscription.
func (s *System) Unsubscribe(id string) error {
	st := s.subs[id]
	if st == nil {
		return fmt.Errorf("%w: %q", ErrUnknownSubscription, id)
	}
	if err := s.control(interdomain.SignalRequest{Op: wire.OpUnsubscribe, ID: id, Host: st.host}); err != nil {
		return err
	}
	delete(s.subs, id)
	s.hosts[st.host].detach(st)
	return nil
}

// advertise announces publisher id's region from host, creating the
// publisher if the id is new.
func (s *System) advertise(id string, host HostID, f Filter) error {
	rect, err := s.sch.Rect(f)
	if err != nil {
		return err
	}
	p := s.pubs[id]
	if p != nil && (p.host != host || p.advertised && !slices.Equal(p.advRect, rect)) {
		return reregistered(wire.OpAdvertise, id)
	}
	if p != nil && p.advertised {
		return nil
	}
	set, err := s.decomposeRect(rect)
	if err != nil {
		return err
	}
	fresh := p == nil
	if fresh {
		if p, err = s.NewPublisher(id, host); err != nil {
			return err
		}
	}
	if err := s.control(interdomain.SignalRequest{Op: wire.OpAdvertise, ID: id, Host: host, Set: set}); err != nil {
		if fresh {
			delete(s.pubs, id)
		}
		return err
	}
	p.advertised = true
	p.advRect = rect
	p.seq = s.nextSeq()
	p.lastPubSeq = 0
	return nil
}

// unadvertise withdraws publisher id's advertisement.
func (s *System) unadvertise(id string) error {
	p := s.pubs[id]
	if p == nil || !p.advertised {
		return fmt.Errorf("%w: %q", ErrNotAdvertised, id)
	}
	if err := s.control(interdomain.SignalRequest{Op: wire.OpUnadvertise, ID: id, Host: p.host}); err != nil {
		return err
	}
	p.advertised = false
	return nil
}

// reregistered is the refusal of a re-registration that differs from the
// live one.
func reregistered(op wire.Op, id string) error {
	return fmt.Errorf("pleroma: %s %q re-registered with different parameters", op, id)
}

// nextSeq returns the next registration sequence number.
func (s *System) nextSeq() uint64 {
	s.regSeq++
	return s.regSeq
}

// rectOf returns a subscription's full-space rectangle, as its host's demux
// holds it (hostDemux.rect): to read, not to keep.
func (s *System) rectOf(st *subState) dz.Rect { return s.hosts[st.host].rect(st.cell) }

// setSubSet replaces a registered subscription's dz set, keeping the host
// index in step.
func (s *System) setSubSet(st *subState, set dz.Set) {
	h := &s.hosts[st.host]
	h.removeSet(st)
	st.set = set
	h.addSet(st)
}

// recordEvent keeps a bounded window of recent events for dimension
// selection.
const maxEventWindow = 2048

func (s *System) recordEvent(ev Event) {
	s.winTotal++
	if len(s.window) >= maxEventWindow {
		// Overwrite the oldest slot instead of shifting the whole window:
		// publish admission must stay O(1) per event.
		s.window[s.winStart] = ev
		s.winStart = (s.winStart + 1) % maxEventWindow
		return
	}
	s.window = append(s.window, ev)
}

// DimensionSelection reports the PCA ranking of the schema attributes
// based on the current subscriptions and the recent event window
// (Section 5). threshold in (0,1] picks how much coefficient mass the
// selected set must cover.
type DimensionSelection struct {
	// Ranking lists attribute indices, most informative first.
	Ranking []int
	// Selected is the chosen Ω_D (the first K of Ranking).
	Selected []int
	// K is the number of selected dimensions.
	K int
}

// SelectDimensions runs the Section 5 analysis on live state.
func (s *System) SelectDimensions(threshold float64) (DimensionSelection, error) {
	if len(s.window) == 0 {
		return DimensionSelection{}, fmt.Errorf("pleroma: no events recorded yet")
	}
	rects := make([]dz.Rect, 0, len(s.subs))
	for _, st := range s.subs {
		rects = append(rects, s.rectOf(st))
	}
	res, err := dimsel.SelectFromWorkload(rects, s.window, threshold)
	if err != nil {
		return DimensionSelection{}, err
	}
	return DimensionSelection{Ranking: res.Ranking, Selected: res.Selected, K: res.K}, nil
}

// Stats summarises the deployment's control- and data-plane activity.
type Stats struct {
	// Partitions is the number of controllers.
	Partitions int
	// ControlMessages counts inter-controller messages.
	ControlMessages uint64
	// FlowMods counts FlowMod operations applied to switches.
	FlowMods uint64
	// LinkPackets counts event transmissions over physical links.
	LinkPackets uint64
	// Deliveries counts events handed to subscription handlers.
	Deliveries uint64
	// FalsePositives counts deliveries that did not match the receiving
	// subscription exactly (dz truncation artefacts, Section 6.4).
	FalsePositives uint64
}

// FPRPercent returns the false positive rate as a percentage of all
// deliveries — the paper's bandwidth-efficiency metric.
func (st Stats) FPRPercent() float64 {
	if st.Deliveries == 0 {
		return 0
	}
	return 100 * float64(st.FalsePositives) / float64(st.Deliveries)
}

// Stats returns a snapshot of the system counters. The data-plane counters
// are plain fields owned by the shard that writes them, so the snapshot is
// exact between runs (from any goroutine) and inside a handler on a
// single-engine system, where a handler already sees its own delivery
// counted; calling it from another goroutine while Run is in flight is
// unsupported — the observability metrics are the mid-run surface.
func (s *System) Stats() Stats {
	fst := s.fab.Stats()
	st := Stats{
		Partitions:      len(s.fab.Partitions()),
		ControlMessages: fst.MessagesSent,
		FlowMods:        s.dp.FlowModCount(),
		LinkPackets:     s.dp.TotalLinkPackets(),
	}
	for i := range s.hosts {
		st.Deliveries += s.hosts[i].deliveries
		st.FalsePositives += s.hosts[i].falsePositives
	}
	return st
}

// Switches returns the switch nodes of the deployment (for link-failure
// injection and inspection).
func (s *System) Switches() []HostID { return s.g.Switches() }

// FailLink marks the link between two nodes as failed and makes every
// controller rebuild its dissemination trees around it. Publications in
// flight on the failed link are lost; new publications take the repaired
// paths.
func (s *System) FailLink(a, b HostID) error {
	if err := s.g.SetLinkState(a, b, true); err != nil {
		return err
	}
	return s.fab.HandleTopologyChange()
}

// RestoreLink brings a failed link back and re-optimises the trees.
func (s *System) RestoreLink(a, b HostID) error {
	if err := s.g.SetLinkState(a, b, false); err != nil {
		return err
	}
	return s.fab.HandleTopologyChange()
}

// Links returns the topology's links (for inspection and failure
// injection).
func (s *System) Links() []*topo.Link { return s.g.Links() }

// Resubscribe atomically replaces a subscription's filter, keeping its
// identity and handler — the "parametric subscription" pattern of the
// paper's introduction (moving range queries, sliding price thresholds),
// where a subscription's parameters change far more often than its
// lifetime.
func (s *System) Resubscribe(id string, f Filter) error {
	st, ok := s.subs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSubscription, id)
	}
	rect, err := s.sch.Rect(f)
	if err != nil {
		return err
	}
	set, err := s.decomposeRect(rect)
	if err != nil {
		return err
	}
	if err := s.control(interdomain.SignalRequest{
		Op: wire.OpUnsubscribe, ID: id, Host: st.host,
	}); err != nil {
		return err
	}
	if err := s.control(interdomain.SignalRequest{
		Op: wire.OpSubscribe, ID: id, Host: st.host, Set: set,
	}); err != nil {
		return err
	}
	s.hosts[st.host].setRect(st, rect)
	s.setSubSet(st, set)
	return nil
}
