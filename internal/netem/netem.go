// Package netem emulates the data plane of an SDN network on top of the
// deterministic simulation engine: packets traverse links with propagation
// and serialization delay, switches match them against OpenFlow tables with
// a constant TCAM lookup cost, and end hosts ingest events at a bounded
// processing rate (the bottleneck observed in the paper's throughput
// experiment, Section 6.3).
//
// It substitutes for the paper's Open vSwitch testbed and Mininet: the
// observables of the evaluation — end-to-end delay, throughput saturation,
// link load — are functions of exactly the quantities modelled here.
//
// # Fast path
//
// Forwarding runs on a precompiled plan instead of graph queries: at
// construction (and whenever the topology's structural version changes)
// the data plane compiles, per switch, a dense port → link-direction array
// whose entries point straight at per-direction link state and carry the
// peer's identity, kind, and ingress port. A packet hop therefore touches
// no maps, takes no lock, and — because in-flight packets live in a
// free-listed slab addressed by the typed event payload — allocates
// nothing in steady state.
//
// A hop is two engine events, arrival and lookup, and the packet does not
// move: it is written into a slab slot when it is injected and the slot is
// handed from event to event until the packet is delivered, punted or
// dropped (only the extra branches of a multicast fan-out copy it). Link
// occupancy costs no event: a direction remembers the (time, seq) keys at
// which its queued packets leave the transmit queue and compares them with
// the engine's position when the next packet asks for room (see dirState).
package netem

import (
	"fmt"
	"net/netip"
	"time"

	"pleroma/internal/dz"
	"pleroma/internal/ipmc"
	"pleroma/internal/obs"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/sim/shard"
	"pleroma/internal/space"
	"pleroma/internal/topo"
)

// Packet is an event datagram travelling through the data plane.
type Packet struct {
	// Dst is the destination address: a dz-embedded multicast address for
	// events, a host address after terminal rewrite, or IP_vir for
	// control signalling. It is the header a switch matches, and the truth:
	// dstKey below is its memo.
	Dst netip.Addr
	// Key is the event's dz, packed: what the receiving host demultiplexes
	// on. Publish admission makes it once per event and Dst is a copy of its
	// bits, so nothing on the path parses an expression. Switches do not read
	// it — they match the header, Dst.
	Key dz.Key
	// dstKey is what a switch hop looks Dst up by: ipmc.KeyFromAddr(Dst),
	// packed once where Dst is written — PublishBatch, the injection entry
	// points (atInjection), a SetDest rewrite (sendTo) — instead of once per
	// hop, and the zero key when Dst is no dz address. It is never set from
	// anything but Dst, so the switches still match exactly the bits the wire
	// carries; like every field it travels by value through the slab,
	// multicast copies and cross-shard mailboxes. A rewrite on the last hop,
	// out of a host-facing port, leaves the zero key: no switch follows, and
	// a delivered packet sent on again is repacked at injection.
	dstKey dz.Key
	// Hops counts the switch hops taken so far. (It sits here to share the
	// two keys' alignment padding; TestPacketSize tracks the struct's size,
	// which every slab entry, multicast copy and delivery pays.)
	Hops uint16
	// Expr is a label for callers that build an event packet by hand: the
	// injection entry points (SendFromHost, SendFromSwitchPort) give a packet
	// that carries Expr and no Key the key of Expr, once. Nothing reads it
	// per hop or per host, and published packets leave it empty.
	Expr dz.Expr
	// Event is the content payload, used by receivers for false-positive
	// accounting.
	Event space.Event
	// Publisher is the originating host.
	Publisher topo.NodeID
	// Seq numbers packets per publisher.
	Seq uint64
	// SizeBytes is the wire size (the paper uses up to 64-byte UDP
	// packets).
	SizeBytes int
	// SentAt is the simulated publish instant.
	SentAt time.Duration
	// HopLimit guards against forwarding loops.
	HopLimit int
	// Control carries controller-originated payloads (e.g. LLDP discovery
	// probes) opaque to the data plane.
	Control any
	// Path records the switches traversed when path recording is enabled.
	Path []topo.NodeID
	// Stamp is the observability origin context (zero when unstamped).
	Stamp Stamp
}

// Stamp is the per-event observability origin context: the
// distributed-trace identity for cross-process span linking, the owning
// dissemination tree and publisher partition for latency labelling, and
// the publisher's wall-clock instant for wall-latency accounting. It is
// plain values and — like every Packet field — travels by value through
// the packet slab and cross-shard mailboxes, so stamping adds no
// allocations on the hot path. The zero Stamp means "unstamped".
type Stamp struct {
	// TraceID / SpanID link deliveries of this packet to a distributed
	// trace (0 = untraced).
	TraceID uint64
	SpanID  uint64
	// OriginWall is the publisher's wall clock at publish time (Unix
	// nanoseconds; 0 = unstamped). Only meaningful within the publishing
	// process's clock domain.
	OriginWall int64
	// Tree is the dissemination tree carrying the event (-1 or 0 when
	// unknown; tree ids are minted from 1).
	Tree int32
	// Partition is the publisher's controller partition (-1 unknown).
	Partition int32
}

// DefaultPacketSize is the event packet size used in the paper (≤64 bytes).
const DefaultPacketSize = 64

// DefaultHopLimit bounds the number of switch hops of a packet.
const DefaultHopLimit = 64

// SwitchConfig models the forwarding cost of a switch.
type SwitchConfig struct {
	// LookupDelay is the per-packet match cost. TCAM lookups are constant
	// time regardless of table occupancy — the property Figure 7(a)
	// demonstrates.
	LookupDelay time.Duration
	// PerFlowPenalty adds table-size-dependent cost per 1000 installed
	// flows, emulating a software switch with linear search. Zero for
	// hardware/TCAM behaviour.
	PerFlowPenalty time.Duration
}

// DefaultSwitchConfig models an Open vSwitch style fast path.
var DefaultSwitchConfig = SwitchConfig{LookupDelay: 10 * time.Microsecond}

// HostConfig models the event-processing capability of an end host.
type HostConfig struct {
	// CapacityPerSec is the sustained event ingestion rate; zero means
	// unlimited. The paper measures ~70–80k events/s on its end hosts and
	// ~170k on faster machines.
	CapacityPerSec int
	// MaxQueue is the ingress backlog (packets) before drops; zero uses
	// DefaultMaxQueue.
	MaxQueue int
}

// DefaultMaxQueue is the default host ingress queue depth.
const DefaultMaxQueue = 512

// Delivery reports one packet handed to application code on a host.
type Delivery struct {
	Host   topo.NodeID
	Packet Packet
	// At is the simulated delivery completion time.
	At time.Duration
}

// DeliverFunc consumes deliveries on a host.
type DeliverFunc func(Delivery)

// PuntFunc consumes packets addressed to IP_vir (control signalling) or
// packets without a matching flow; inPort is the switch ingress port.
type PuntFunc func(sw topo.NodeID, inPort openflow.PortID, pkt Packet)

// SwitchStats counts per-switch data-plane activity. The fields are plain
// counters written only by the context that owns the switch (see
// DataPlane).
type SwitchStats struct {
	Forwarded   uint64
	TableMisses uint64
	HopExceeded uint64
	Punted      uint64
}

// LinkStats counts packets and bytes per link direction (indexed by the
// transmitting node).
type LinkStats struct {
	Packets map[topo.NodeID]uint64
	Bytes   map[topo.NodeID]uint64
	// Dropped counts tail-drops at a bounded transmit queue.
	Dropped map[topo.NodeID]uint64
}

// Publication is one event of a PublishBatch: the path form, with the
// event's dz already packed (space.Schema.EncodeKey). Publish and
// PublishStamped are the boundary form, for a dz that arrives as a string.
type Publication struct {
	Key   dz.Key
	Event space.Event
	// Size is the wire size; zero or negative uses DefaultPacketSize.
	Size int
	// Stamp is the observability origin context (zero when unstamped).
	Stamp Stamp
}

// dirState is the compiled state of one link direction. The plan points
// every switch port and host access link straight at its dirState, so a
// hop reads the link, updates the direction's serialization bookkeeping,
// and schedules arrival at the precompiled peer — no map, no graph query.
//
// Everything mutable here — busyUntil, queue and the traffic counters — is
// owned by the context of the sending node (from): the goroutine driving
// injection and Run in single-engine mode, that node's shard worker under
// EnableSharding. The counters are plain fields; see DataPlane for when
// they may be read.
type dirState struct {
	link *topo.Link
	from topo.NodeID
	// Precompiled arrival side.
	to     topo.NodeID
	toPort openflow.PortID
	toHost bool

	busyUntil time.Duration
	// queue is the transmit queue's occupancy: one departure key per packet
	// accepted and not yet serialized onto the wire. A packet frees its
	// place at its departure instant, in the engine's (time, seq) order at
	// the sequence number taken when it was accepted — exactly where an
	// event scheduled to decrement a counter would run — so the place is
	// free once the engine has passed the key. Departures are FIFO, so the
	// passed keys are a prefix, dropped by transmit before it tests
	// QueuePackets.
	queue departures

	packets uint64
	bytes   uint64
	dropped uint64
}

// departure is the (time, seq) key at which one queued packet leaves a
// link direction's transmit queue.
type departure struct {
	at  time.Duration
	seq uint64
}

// departures is a FIFO of departure keys in a circular buffer whose length
// is a power of two; like the packet slab it keeps the capacity of its
// deepest backlog.
type departures struct {
	buf  []departure
	head int
	n    int
}

func (q *departures) push(k departure) {
	if q.n == len(q.buf) {
		buf := make([]departure, max(2*len(q.buf), 4))
		n := copy(buf, q.buf[q.head:])
		copy(buf[n:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = k
	q.n++
}

// settle drops the keys the engine has passed and returns how many packets
// still occupy the queue.
func (q *departures) settle(eng *sim.Engine) int {
	for q.n > 0 && eng.Passed(q.buf[q.head].at, q.buf[q.head].seq) {
		q.head = (q.head + 1) & (len(q.buf) - 1)
		q.n--
	}
	return q.n
}

// switchPlan is the compiled forwarding view of one switch.
type switchPlan struct {
	table *openflow.Table
	stats *SwitchStats
	// cfg is the switch's forwarding model, set between runs or on the
	// goroutine driving a single-engine run (SetAllSwitchConfigs).
	cfg SwitchConfig
	// ports maps PortID (1-based; index 0 unused) to the outgoing link
	// direction, nil where no link is attached.
	ports []*dirState
}

func (p *switchPlan) dirFor(port openflow.PortID) *dirState {
	if int(port) <= 0 || int(port) >= len(p.ports) {
		return nil
	}
	return p.ports[port]
}

// hostState models one end host. busyUntil, queued, pubSeq and the
// received/dropped counters are owned by the host's shard during a run —
// plain fields, like every data-plane counter (see DataPlane) — and
// cfg/deliver are set between runs.
type hostState struct {
	cfg       HostConfig
	busyUntil time.Duration
	queued    int
	received  uint64
	dropped   uint64
	// pubSeq is the sequence number of the host's last published event.
	pubSeq  uint64
	deliver DeliverFunc
	// access is the compiled host→switch link direction (nil when the
	// host has no attached switch). Immutable after a plan build.
	access *dirState
}

// Typed event kinds the data plane schedules on the engine. The payload
// words are: A = node id, B = switch ingress port, Ref = packet slab slot —
// except evPublish, whose Ref is a slot of the shard's pubs.
const (
	evArriveSwitch uint8 = iota + 1
	evSwitchLookup
	evArriveHost
	evHostDone
	evPublish
)

// shardCtx is the execution context of one simulation shard: its engine,
// its private packet slab and free list (so the intra-shard fast path
// stays single-owner and allocation-free), and one outbound mailbox per
// peer shard. In single-engine mode the data plane has exactly one ctx
// and the hot path is unchanged. shardCtx is the sim.Handler the data
// plane schedules events on, so a typed event always executes against
// the slab that owns its Ref.
type shardCtx struct {
	dp  *DataPlane
	id  int32
	eng *sim.Engine

	// Packet slab: in-flight packets, addressed by event Ref; free is the
	// free list. Owned by this shard's goroutine during a run.
	slab []Packet
	free []uint32

	// pubs holds the publications PublishAt scheduled on this shard.
	pubs sim.Slots[Publication]

	// out[dst] buffers packets whose next hop lands on another shard, and
	// punts the packets this shard punted, bound for the control engine;
	// flushMailboxes drains both at every barrier. Unused in single mode.
	out   [][]crossMsg
	punts []puntMsg
}

// crossMsg is one cross-shard packet hop: the arrival event, flattened.
// The packet travels by value — the sending shard releases (or never
// allocates) its slab slot, and the receiving shard re-slabs it when the
// mailbox is drained, so no slab is ever touched by two goroutines.
type crossMsg struct {
	at   time.Duration
	kind uint8
	node int32
	port int32
	pkt  Packet
}

// puntMsg is one punt of a sharded run on its way to the control engine:
// the packet, where it was punted, and the handler registered at that
// instant.
type puntMsg struct {
	at     time.Duration
	sw     topo.NodeID
	inPort openflow.PortID
	pkt    Packet
	fn     *PuntFunc
}

// puntQueue is the control engine's handler of punts: flushMailboxes parks
// each punt in msgs and schedules it at its instant, and the event calls the
// punt handler on the goroutine driving Run.
type puntQueue struct {
	msgs sim.Slots[puntMsg]
}

func (q *puntQueue) HandleEvent(ev sim.Event) {
	m := q.msgs.Take(ev.Ref)
	(*m.fn)(m.sw, m.inPort, m.pkt)
}

// DataPlane wires a topology, per-switch flow tables, and host models onto
// a simulation engine.
//
// Concurrency: a DataPlane takes no lock; every field has one owner. The
// goroutine driving Run owns the configuration — tables (programmed through
// ApplyBatch), switch configs, host configs, the punt handler, the
// path-recording flag and the southbound count — and sets it between runs
// or, in single-engine mode, from a callback on that goroutine. In
// single-engine mode the simulation is single-threaded: packets are
// injected and forwarded on the goroutine driving Run, which also owns the
// packet slab and per-direction serialization state. Under EnableSharding
// each shard's worker owns the same state for its partition of the
// topology (slab, link directions transmitting from its nodes, its
// switches and hosts, a host's publish sequence), cross-shard hops travel
// through barrier-drained mailboxes, and injection is only legal between
// runs; a worker reads the configuration, which the run's start orders
// after every write made before it. Nothing may change the configuration
// from a delivery callback of a sharded run.
//
// Punt callbacks run on the goroutine driving Run in every mode: inline at
// the punting switch's event in single-engine mode, and under
// EnableSharding as a control-engine event at the punt's instant, handed
// over through the barrier exchange (see shard.Coordinator). Work a punt
// callback schedules belongs on ControlEngine.
//
// Counters: every data-plane counter — a link direction's packets, bytes
// and drops, a switch's SwitchStats, a host's received and dropped — is a
// plain uint64 with one writer, the context owning the direction's sending
// node, the switch or the host. The readers (SwitchStatsFor, HostReceived,
// HostDropped, LinkStatsFor, TotalLinkPackets) are exact between runs, from
// any goroutine (Run's return is the happens-before edge), and from a
// delivery or punt callback in single-engine mode, which runs on the
// goroutine driving Run. Reading them from another goroutine while a run
// is in flight is a data race and unsupported; the obs instruments
// (Instrument) are the mid-run surface.
type DataPlane struct {
	g      *topo.Graph
	eng    *sim.Engine
	tables map[topo.NodeID]*openflow.Table

	// Compiled forwarding plan (engine goroutine; rebuilt when the graph's
	// structural version moves — see ensurePlan).
	plans       []*switchPlan // dense by NodeID, nil for non-switches
	hosts       []*hostState  // dense by NodeID, nil for non-hosts
	dirs        []*dirState   // append-only; dirByLink indexes it
	dirByLink   map[*topo.Link]int32
	planVersion uint64

	// Sharded execution (EnableSharding). local is the sole context in
	// single-engine mode and shard 0 otherwise; shardOf is the dense
	// NodeID→shard assignment (nil in single mode, so the fast path pays
	// one nil check); coord drives the barrier-window protocol.
	local   *shardCtx
	shards  []*shardCtx
	shardOf []int32
	coord   *shard.Coordinator

	// swCfg keeps each switch's config across plan rebuilds.
	swCfg   map[topo.NodeID]SwitchConfig
	swStats map[topo.NodeID]*SwitchStats

	punt        *PuntFunc // nil: no punt handler
	punted      puntQueue // punts of a sharded run, on the control engine
	recordPaths bool

	// southbound counts controller→switch programming calls; a batch is
	// one call regardless of how many FlowMods it carries.
	southbound uint64

	// Observability counters, set once by Instrument before the simulation
	// runs and nil otherwise; the forwarding path pays a nil check when
	// instrumentation is off (obs instruments are nil-safe).
	obsLinkPackets    *obs.Counter
	obsLinkDrops      *obs.Counter
	obsHostDeliveries *obs.Counter
	obsCrossMessages  *obs.Counter
	obsMailboxDrained *obs.Gauge
}

// New creates a data plane for the topology on the given engine. Every
// switch gets an empty flow table and DefaultSwitchConfig; every host gets
// an unlimited-capacity model until configured. The forwarding plan is
// compiled immediately.
func New(g *topo.Graph, eng *sim.Engine) *DataPlane {
	dp := &DataPlane{
		g:         g,
		eng:       eng,
		tables:    make(map[topo.NodeID]*openflow.Table),
		swCfg:     make(map[topo.NodeID]SwitchConfig),
		swStats:   make(map[topo.NodeID]*SwitchStats),
		dirByLink: make(map[*topo.Link]int32),
	}
	dp.local = &shardCtx{dp: dp, id: 0, eng: eng}
	dp.shards = []*shardCtx{dp.local}
	dp.rebuildPlan()
	return dp
}

// EnableSharding switches the data plane to parallel execution under the
// coordinator: assign maps every NodeID to a shard, shard 0 must be the
// engine the data plane was built on, and every host must share its
// attached switch's shard (so host arrivals and deliveries stay
// shard-local). With one shard this is a no-op and the classic
// single-engine path remains untouched.
//
// In sharded mode delivery callbacks run on shard worker goroutines — at
// most one invocation per host at a time, but callbacks for hosts on
// different shards run concurrently and must synchronize any shared state.
// Punt callbacks do not: they run on the coordinator's control engine, on
// the goroutine driving Run, with every shard idle.
func (dp *DataPlane) EnableSharding(coord *shard.Coordinator, assign []int32) error {
	n := coord.Shards()
	if n <= 1 {
		return nil
	}
	if coord.Engine(0) != dp.eng {
		return fmt.Errorf("netem: data plane must be built on shard 0's engine")
	}
	if err := topo.ValidateShardAssignment(dp.g, assign, n); err != nil {
		return fmt.Errorf("netem: %w", err)
	}
	dp.ensurePlan()
	shards := make([]*shardCtx, n)
	shards[0] = dp.local
	for i := 1; i < n; i++ {
		shards[i] = &shardCtx{dp: dp, id: int32(i), eng: coord.Engine(i)}
	}
	for _, c := range shards {
		c.out = make([][]crossMsg, n)
	}
	dp.shards = shards
	dp.shardOf = append([]int32(nil), assign...)
	dp.coord = coord
	coord.SetExchange(dp.flushMailboxes)
	return nil
}

// Sharded reports whether parallel execution is enabled.
func (dp *DataPlane) Sharded() bool { return dp.coord != nil }

// Run drains the simulation to quiescence: the coordinator's barrier
// drain in sharded mode, the engine's otherwise. Layers that drive the
// data plane (controllers, experiments) must use this instead of
// Engine().Run() so they work under both modes.
func (dp *DataPlane) Run() time.Duration {
	if dp.coord != nil {
		return dp.coord.Run()
	}
	return dp.eng.Run()
}

// RunUntil is Run bounded by a deadline; see sim.Engine.RunUntil.
func (dp *DataPlane) RunUntil(deadline time.Duration) time.Duration {
	if dp.coord != nil {
		return dp.coord.RunUntil(deadline)
	}
	return dp.eng.RunUntil(deadline)
}

// ControlEngine returns the engine control work is scheduled on: the
// coordinator's control engine under EnableSharding, the data plane's
// engine otherwise (which is the control engine of one shard).
func (dp *DataPlane) ControlEngine() *sim.Engine {
	if dp.coord != nil {
		return dp.coord.Control()
	}
	return dp.eng
}

// ctxFor returns the execution context owning a node.
func (dp *DataPlane) ctxFor(n topo.NodeID) *shardCtx {
	if dp.shardOf == nil {
		return dp.local
	}
	return dp.shards[dp.shardOf[n]]
}

// injectable rejects external packet injection while a sharded drain is
// in flight: delivery handlers run on shard goroutines, and scheduling
// from them would race the barrier protocol. Inject between runs (the
// classic driver pattern), or in single-engine mode where re-entrant
// injection remains supported.
func (dp *DataPlane) injectable() error {
	if dp.coord != nil && dp.coord.Running() {
		return fmt.Errorf("netem: cannot inject packets during a sharded run; inject between runs or use WithShards(1)")
	}
	return nil
}

// flushMailboxes moves every buffered cross-shard hop into its
// destination engine, and every punt onto the control engine. Drain order
// is fixed — destination shard, then source shard, then FIFO within a
// mailbox; punts after the hops, by shard — so the (time, seq) order each
// engine assigns to simultaneous arrivals is deterministic for a given
// shard count. Called by the coordinator at every barrier with all shards
// idle.
func (dp *DataPlane) flushMailboxes() bool {
	moved := 0
	for dst, dctx := range dp.shards {
		for _, sctx := range dp.shards {
			box := sctx.out[dst]
			if len(box) == 0 {
				continue
			}
			for i := range box {
				m := &box[i]
				slot := dctx.allocPkt(m.pkt)
				dctx.eng.AtEvent(m.at, dctx, sim.Event{Kind: m.kind, A: m.node, B: m.port, Ref: slot})
				box[i] = crossMsg{} // drop payload references
			}
			moved += len(box)
			sctx.out[dst] = box[:0]
		}
	}
	if moved > 0 {
		dp.obsCrossMessages.Add(uint64(moved))
	}
	dp.obsMailboxDrained.Set(int64(moved))
	ctl, punts := dp.coord.Control(), 0
	for _, c := range dp.shards {
		for i := range c.punts {
			ctl.AtEvent(c.punts[i].at, &dp.punted, sim.Event{Ref: dp.punted.msgs.Put(c.punts[i])})
			c.punts[i] = puntMsg{}
		}
		punts += len(c.punts)
		c.punts = c.punts[:0]
	}
	return moved+punts > 0
}

// ensurePlan recompiles the forwarding plan when the topology's structural
// version has moved past the compiled one. Called from injection entry
// points on the engine goroutine.
func (dp *DataPlane) ensurePlan() {
	if dp.planVersion != dp.g.Version() {
		dp.rebuildPlan()
	}
}

// rebuildPlan compiles the dense forwarding plan from the graph. Stats
// survive rebuilds: switch counters, link-direction counters, and host
// state are carried over by identity; only the dense index arrays are
// rebuilt.
func (dp *DataPlane) rebuildPlan() {
	g := dp.g
	nodes := g.Nodes()

	// Register per-link direction state (append-only: a direction's
	// counters and queue survive rebuilds by identity).
	for _, l := range g.Links() {
		if _, ok := dp.dirByLink[l]; ok {
			continue
		}
		base := int32(len(dp.dirs))
		dp.dirByLink[l] = base
		na, _ := g.Node(l.A)
		nb, _ := g.Node(l.B)
		dp.dirs = append(dp.dirs,
			&dirState{link: l, from: l.A, to: l.B, toPort: l.BPort, toHost: nb.Kind == topo.KindHost},
			&dirState{link: l, from: l.B, to: l.A, toPort: l.APort, toHost: na.Kind == topo.KindHost},
		)
	}
	// dirFrom resolves the direction of l transmitting from node n.
	dirFrom := func(l *topo.Link, n topo.NodeID) *dirState {
		base := dp.dirByLink[l]
		if l.A == n {
			return dp.dirs[base]
		}
		return dp.dirs[base+1]
	}

	plans := make([]*switchPlan, len(nodes))
	hosts := make([]*hostState, len(nodes))
	oldHosts := dp.hosts
	for _, n := range nodes {
		switch n.Kind {
		case topo.KindSwitch:
			if dp.tables[n.ID] == nil {
				dp.tables[n.ID] = openflow.NewTable()
				dp.swCfg[n.ID] = DefaultSwitchConfig
				dp.swStats[n.ID] = &SwitchStats{}
			}
			p := &switchPlan{table: dp.tables[n.ID], stats: dp.swStats[n.ID], cfg: dp.swCfg[n.ID]}
			nbs := g.Neighbors(n.ID)
			maxPort := openflow.PortID(0)
			for _, nb := range nbs {
				if nb.Port > maxPort {
					maxPort = nb.Port
				}
			}
			p.ports = make([]*dirState, maxPort+1)
			for _, nb := range nbs {
				p.ports[nb.Port] = dirFrom(nb.Link, n.ID)
			}
			plans[n.ID] = p
		case topo.KindHost:
			hs := &hostState{}
			if int(n.ID) < len(oldHosts) && oldHosts[n.ID] != nil {
				hs = oldHosts[n.ID]
			}
			hs.access = nil
			for _, nb := range g.Neighbors(n.ID) {
				if nodes[nb.Peer].Kind == topo.KindSwitch {
					hs.access = dirFrom(nb.Link, n.ID)
					break
				}
			}
			hosts[n.ID] = hs
		}
	}
	dp.hosts = hosts
	dp.plans = plans
	dp.planVersion = g.Version()
}

// Graph returns the underlying topology.
func (dp *DataPlane) Graph() *topo.Graph { return dp.g }

// Engine returns the simulation engine.
func (dp *DataPlane) Engine() *sim.Engine { return dp.eng }

// Table returns the flow table of a switch.
func (dp *DataPlane) Table(sw topo.NodeID) (*openflow.Table, error) {
	t, ok := dp.tables[sw]
	if !ok {
		return nil, fmt.Errorf("netem: node %d is not a switch", sw)
	}
	return t, nil
}

func (dp *DataPlane) planFor(sw topo.NodeID) *switchPlan {
	if int(sw) < 0 || int(sw) >= len(dp.plans) {
		return nil
	}
	return dp.plans[sw]
}

// SetAllSwitchConfigs overrides the forwarding model of every switch.
func (dp *DataPlane) SetAllSwitchConfigs(cfg SwitchConfig) {
	for sw := range dp.swCfg {
		dp.swCfg[sw] = cfg
	}
	for _, p := range dp.plans {
		if p != nil {
			p.cfg = cfg
		}
	}
}

// ConfigureHost sets the processing model and delivery callback of a host.
func (dp *DataPlane) ConfigureHost(h topo.NodeID, cfg HostConfig, deliver DeliverFunc) error {
	dp.ensurePlan()
	if int(h) < 0 || int(h) >= len(dp.hosts) || dp.hosts[h] == nil {
		return fmt.Errorf("netem: node %d is not a host", h)
	}
	hs := dp.hosts[h]
	hs.cfg = cfg
	hs.deliver = deliver
	return nil
}

// SetPuntHandler registers the controller-bound punt path (nil removes
// it). Call it between runs or from a single-engine callback (see
// DataPlane); a punt already handed to the control engine keeps the handler
// registered when it was punted.
func (dp *DataPlane) SetPuntHandler(f PuntFunc) {
	if f == nil {
		dp.punt = nil
		return
	}
	dp.punt = &f
}

// RecordPaths toggles per-packet path recording (each visited switch is
// appended to Packet.Path) — a debugging aid and the hook the forwarding
// invariants are tested against. Call it between runs or from a
// single-engine callback (see DataPlane).
func (dp *DataPlane) RecordPaths(on bool) { dp.recordPaths = on }

// SwitchStatsFor returns a copy of the counters of one switch. Like every
// counter reader it is exact between runs and inside a single-engine
// callback, and not to be called mid-run from another goroutine (see
// DataPlane).
func (dp *DataPlane) SwitchStatsFor(sw topo.NodeID) SwitchStats {
	if s, ok := dp.swStats[sw]; ok {
		return *s
	}
	return SwitchStats{}
}

// HostReceived returns the number of packets delivered to the host
// application.
func (dp *DataPlane) HostReceived(h topo.NodeID) uint64 {
	if int(h) >= 0 && int(h) < len(dp.hosts) && dp.hosts[h] != nil {
		return dp.hosts[h].received
	}
	return 0
}

// HostDropped returns the number of packets dropped at host ingress.
func (dp *DataPlane) HostDropped(h topo.NodeID) uint64 {
	if int(h) >= 0 && int(h) < len(dp.hosts) && dp.hosts[h] != nil {
		return dp.hosts[h].dropped
	}
	return 0
}

// LinkStatsFor returns the counters of one link, or nil if the link has
// carried (and dropped) nothing. The returned struct is a snapshot
// synthesized from the per-direction counters, under the read contract of
// SwitchStatsFor.
func (dp *DataPlane) LinkStatsFor(l *topo.Link) *LinkStats {
	base, ok := dp.dirByLink[l]
	if !ok {
		return nil
	}
	ls := &LinkStats{
		Packets: make(map[topo.NodeID]uint64),
		Bytes:   make(map[topo.NodeID]uint64),
		Dropped: make(map[topo.NodeID]uint64),
	}
	var total uint64
	for _, d := range []*dirState{dp.dirs[base], dp.dirs[base+1]} {
		if v := d.packets; v > 0 {
			ls.Packets[d.from] = v
			total += v
		}
		if v := d.bytes; v > 0 {
			ls.Bytes[d.from] = v
			total += v
		}
		if v := d.dropped; v > 0 {
			ls.Dropped[d.from] = v
			total += v
		}
	}
	if total == 0 {
		return nil
	}
	return ls
}

// TotalLinkPackets sums packet transmissions over all links — the
// bandwidth-usage measure used by the tree-strategy ablation.
func (dp *DataPlane) TotalLinkPackets() uint64 {
	var total uint64
	for _, d := range dp.dirs {
		total += d.packets
	}
	return total
}

// Publish injects an event packet from a host. The destination address is
// derived from the expression; the sequence number is assigned per
// publisher.
func (dp *DataPlane) Publish(host topo.NodeID, expr dz.Expr, ev space.Event, size int) error {
	return dp.PublishStamped(host, expr, ev, size, Stamp{})
}

// PublishStamped is Publish carrying an observability origin stamp; the
// stamp rides the packet by value to every delivery. The expression is
// checked and packed here, once, and the event takes the batch path.
func (dp *DataPlane) PublishStamped(host topo.NodeID, expr dz.Expr, ev space.Event, size int, st Stamp) error {
	key, err := ipmc.KeyFromExpr(expr)
	if err != nil {
		return fmt.Errorf("netem: publish: %w", err)
	}
	pubs := [1]Publication{{Key: key, Event: ev, Size: size, Stamp: st}}
	return dp.PublishBatch(host, pubs[:])
}

// PublishBatch injects a burst of event packets from one host, reserving
// all their sequence numbers at once. A publication's
// address is a copy of its key, so nothing in a batch can be malformed: on
// error (the host cannot inject right now) nothing is published and no
// sequence number is taken. The resulting packet stream — sequence numbers,
// timestamps, event ordering — is identical to calling Publish once per
// publication at the same simulated instant.
func (dp *DataPlane) PublishBatch(host topo.NodeID, pubs []Publication) error {
	if len(pubs) == 0 {
		return nil
	}
	d, err := dp.hostLink(host)
	if err != nil {
		return err
	}
	dp.ctxFor(host).publish(d, host, pubs)
	return nil
}

// PublishAt is Publish at the simulated instant at (clamped to the host's
// clock): everything Publish checks — the expression, the host's access
// link, that no sharded run is in flight — is checked now, and on error
// nothing is scheduled. The event it schedules on the host's engine
// injects the packet exactly as Publish would at that instant.
func (dp *DataPlane) PublishAt(at time.Duration, host topo.NodeID, expr dz.Expr, ev space.Event, size int) error {
	key, err := ipmc.KeyFromExpr(expr)
	if err != nil {
		return fmt.Errorf("netem: publish: %w", err)
	}
	if _, err := dp.hostLink(host); err != nil {
		return err
	}
	c := dp.ctxFor(host)
	slot := c.pubs.Put(Publication{Key: key, Event: ev, Size: size})
	c.eng.AtEvent(at, c, sim.Event{Kind: evPublish, A: int32(host), Ref: slot})
	return nil
}

// publish injects pubs on host's access link d, in order, at the shard's
// current instant.
func (c *shardCtx) publish(d *dirState, host topo.NodeID, pubs []Publication) {
	dp := c.dp
	now := c.eng.Now()
	hs := dp.hosts[host]
	base := hs.pubSeq
	hs.pubSeq += uint64(len(pubs))
	for i := range pubs {
		pb := &pubs[i]
		size := pb.Size
		if size <= 0 {
			size = DefaultPacketSize
		}
		c.transmit(d, c.allocPkt(Packet{
			Dst:       ipmc.AddrFromKey(pb.Key),
			Key:       pb.Key,
			dstKey:    ipmc.PadKey(pb.Key),
			Event:     pb.Event,
			Publisher: host,
			Seq:       base + uint64(i) + 1,
			SizeBytes: size,
			SentAt:    now,
			HopLimit:  DefaultHopLimit,
			Stamp:     pb.Stamp,
		}))
	}
}

// hostLink resolves the compiled access-link direction a host may inject on
// right now, or the reason it may not.
func (dp *DataPlane) hostLink(host topo.NodeID) (*dirState, error) {
	if err := dp.injectable(); err != nil {
		return nil, err
	}
	dp.ensurePlan()
	if int(host) >= 0 && int(host) < len(dp.hosts) {
		if hs := dp.hosts[host]; hs != nil && hs.access != nil {
			return hs.access, nil
		}
	}
	return nil, dp.hostAccessErr(host)
}

// hostAccessErr reproduces the precise error of the uncompiled lookup path
// for a host with no usable access link.
func (dp *DataPlane) hostAccessErr(host topo.NodeID) error {
	sw, err := dp.g.AttachedSwitch(host)
	if err != nil {
		return fmt.Errorf("netem: send from host: %w", err)
	}
	return fmt.Errorf("netem: host %d has no link to switch %d", host, sw)
}

// SendFromHost transmits an arbitrary packet from a host onto its access
// link (also used for IP_vir control signalling).
func (dp *DataPlane) SendFromHost(host topo.NodeID, pkt Packet) error {
	d, err := dp.hostLink(host)
	if err != nil {
		return err
	}
	pkt.atInjection()
	c := dp.ctxFor(host)
	c.transmit(d, c.allocPkt(pkt))
	return nil
}

// atInjection is the injection boundary's normalisation of a hand-built
// packet, so the path behind it reads keys alone. A packet that names its dz
// only as Expr gets the key of that expression (an expression longer than a
// key keeps its first dz.MaxKeyBits bits, all an address could carry of it),
// and the switches' lookup key is packed from Dst — always: a caller cannot
// set it, and a delivered packet sent on again must not keep a stale one.
func (p *Packet) atInjection() {
	if p.Key.Len() == 0 && p.Expr != "" {
		p.Key, _ = dz.KeyOf(p.Expr)
	}
	p.dstKey, _ = ipmc.KeyFromAddr(p.Dst)
}

// SendFromSwitchPort transmits a packet out of a specific switch port — the
// OpenFlow packet-out primitive controllers use for LLDP discovery probes
// (Section 4.1 of the paper). The packet is not matched against the
// sending switch's table; it arrives at the peer as regular traffic.
func (dp *DataPlane) SendFromSwitchPort(sw topo.NodeID, port openflow.PortID, pkt Packet) error {
	if err := dp.injectable(); err != nil {
		return err
	}
	dp.ensurePlan()
	p := dp.planFor(sw)
	if p == nil {
		return fmt.Errorf("netem: node %d is not a switch", sw)
	}
	d := p.dirFor(port)
	if d == nil {
		if _, ok := dp.g.PortToPeer(sw, port); !ok {
			return fmt.Errorf("netem: switch %d has no port %d", sw, port)
		}
		return fmt.Errorf("netem: switch %d: no link on port %d", sw, port)
	}
	if pkt.HopLimit <= 0 {
		pkt.HopLimit = DefaultHopLimit
	}
	if pkt.SizeBytes <= 0 {
		pkt.SizeBytes = DefaultPacketSize
	}
	pkt.atInjection()
	c := dp.ctxFor(sw)
	c.transmit(d, c.allocPkt(pkt))
	return nil
}

// newSlot takes a slab slot off the free list, growing the slab when the
// list is empty. It may move the slab: pointers into it do not survive it.
func (c *shardCtx) newSlot() uint32 {
	if n := len(c.free); n > 0 {
		slot := c.free[n-1]
		c.free = c.free[:n-1]
		return slot
	}
	c.slab = append(c.slab, Packet{})
	return uint32(len(c.slab) - 1)
}

// allocPkt parks a packet entering the shard — injected, or drained from a
// mailbox — in the slab and returns its slot. The packet stays in that slot
// until it leaves the shard: events hand the slot on, they do not copy.
func (c *shardCtx) allocPkt(p Packet) uint32 {
	slot := c.newSlot()
	c.slab[slot] = p
	return slot
}

// clonePkt copies the packet in slot into a slot of its own — one more
// branch of a multicast fan-out — and returns the copy's slot.
func (c *shardCtx) clonePkt(slot uint32) uint32 {
	dup := c.newSlot()
	c.slab[dup] = c.slab[slot]
	return dup
}

// releasePkt returns a slot to the free list, dropping payload references.
func (c *shardCtx) releasePkt(slot uint32) {
	c.slab[slot] = Packet{}
	c.free = append(c.free, slot)
}

// HandleEvent dispatches the data plane's typed simulation events for one
// shard. It implements sim.Handler and is invoked by the shard's engine
// only, so every touched structure — slab, free list, link directions and
// hosts assigned to this shard — has a single owner.
func (c *shardCtx) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evArriveSwitch:
		c.arriveAtSwitch(topo.NodeID(ev.A), openflow.PortID(ev.B), ev.Ref)
	case evSwitchLookup:
		c.lookupAndForward(topo.NodeID(ev.A), openflow.PortID(ev.B), ev.Ref)
	case evArriveHost:
		c.arriveAtHost(topo.NodeID(ev.A), ev.Ref)
	case evHostDone:
		c.hostDone(topo.NodeID(ev.A), ev.Ref)
	case evPublish:
		// The access link was resolved when the publish was scheduled; a
		// host keeps its access direction for good.
		pubs := [1]Publication{c.pubs.Take(ev.Ref)}
		c.publish(c.dp.hosts[ev.A].access, topo.NodeID(ev.A), pubs[:])
	}
}

// transmit models serialization + propagation of the packet in slot over
// one link direction and schedules its arrival, which takes the slot over;
// a packet the link drops gives the slot back. Accepting a packet takes one
// engine sequence number for its departure key before the arrival takes
// the next: that order (link release first, then arrival) is load-bearing
// — it fixes the (time, seq) interleaving every recorded experiment
// depends on. The caller must be the context owning d.from; when the
// arrival side lives on another shard the hop leaves the slab and is
// buffered as a mailbox message instead of a local event (the departure
// key stays local — the transmit queue belongs to the sending side).
func (c *shardCtx) transmit(d *dirState, slot uint32) {
	dp := c.dp
	link := d.link
	if link.Down {
		d.dropped++
		dp.obsLinkDrops.Inc()
		c.releasePkt(slot)
		return
	}
	if queued, q := d.queue.settle(c.eng), link.Params.QueuePackets; q > 0 && queued >= q {
		d.dropped++
		dp.obsLinkDrops.Inc()
		c.releasePkt(slot)
		return
	}
	size := c.slab[slot].SizeBytes
	var ser time.Duration
	if bw := link.Params.BandwidthBps; bw > 0 {
		ser = time.Duration(int64(size) * 8 * int64(time.Second) / bw)
	}
	depart := c.eng.Now()
	if d.busyUntil > depart {
		depart = d.busyUntil
	}
	depart += ser
	d.busyUntil = depart
	arriveAt := depart + link.Params.Latency

	d.queue.push(departure{at: depart, seq: c.eng.ReserveSeq()})
	d.packets++
	d.bytes += uint64(size)
	dp.obsLinkPackets.Inc()

	kind := evArriveSwitch
	if d.toHost {
		kind = evArriveHost
	}
	if so := dp.shardOf; so != nil {
		if dst := so[d.to]; dst != c.id {
			c.out[dst] = append(c.out[dst],
				crossMsg{at: arriveAt, kind: kind, node: int32(d.to), port: int32(d.toPort), pkt: c.slab[slot]})
			c.releasePkt(slot)
			return
		}
	}
	c.eng.AtEvent(arriveAt, c, sim.Event{Kind: kind, A: int32(d.to), B: int32(d.toPort), Ref: slot})
}

// arriveAtSwitch charges hop accounting, punts signal traffic, and
// schedules the table lookup after the switch's lookup delay.
func (c *shardCtx) arriveAtSwitch(sw topo.NodeID, inPort openflow.PortID, slot uint32) {
	dp := c.dp
	p := dp.plans[sw]
	pkt := &c.slab[slot]
	if pkt.HopLimit <= 0 {
		p.stats.HopExceeded++
		c.releasePkt(slot)
		return
	}
	pkt.HopLimit--
	pkt.Hops++
	if dp.recordPaths {
		pkt.Path = append(append([]topo.NodeID(nil), pkt.Path...), sw)
	}

	if ipmc.IsSignal(pkt.Dst) {
		p.stats.Punted++
		punt := dp.punt
		out := *pkt
		c.releasePkt(slot)
		if punt != nil {
			c.puntTo(punt, sw, inPort, out)
		}
		return
	}

	cfg := &p.cfg
	delay := cfg.LookupDelay
	if cfg.PerFlowPenalty > 0 {
		delay += cfg.PerFlowPenalty * time.Duration(p.table.Len()) / 1000
	}
	c.eng.ScheduleEvent(delay, c, sim.Event{Kind: evSwitchLookup, A: int32(sw), B: int32(inPort), Ref: slot})
}

// puntTo hands a punted packet to the punt handler: right away in
// single-engine mode, through the control engine under EnableSharding (see
// DataPlane).
func (c *shardCtx) puntTo(punt *PuntFunc, sw topo.NodeID, inPort openflow.PortID, pkt Packet) {
	if c.dp.coord == nil {
		(*punt)(sw, inPort, pkt)
		return
	}
	c.punts = append(c.punts, puntMsg{at: c.eng.Now(), sw: sw, inPort: inPort, pkt: pkt, fn: punt})
}

// lookupAndForward performs the table lookup and fans the packet out over
// the compiled port array. The packet goes out of the last matching port
// in the slot it arrived in; every earlier port gets a copy.
func (c *shardCtx) lookupAndForward(sw topo.NodeID, inPort openflow.PortID, slot uint32) {
	p := c.dp.plans[sw]
	actions, ok := p.table.LookupKey(c.slab[slot].dstKey)
	if !ok {
		p.stats.TableMisses++
		punt := c.dp.punt
		if punt == nil {
			c.releasePkt(slot)
			return
		}
		p.stats.Punted++
		pkt := c.slab[slot]
		c.releasePkt(slot)
		c.puntTo(punt, sw, inPort, pkt)
		return
	}
	// out is the branch found last and not yet sent: it goes out as a copy
	// when another branch follows it and in place when none does.
	var out *dirState
	var outDst netip.Addr
	for _, action := range actions {
		d := p.dirFor(action.OutPort)
		if d == nil {
			continue
		}
		if action.OutPort == inPort && !d.toHost {
			// Split horizon on trunk ports: flow entries union the out-ports
			// of every established path, so the ingress trunk can appear in
			// the action set and bouncing the packet back would duplicate
			// deliveries or loop. Host-facing ports are exempt — a hairpin
			// out the ingress port is how a subscriber colocated with the
			// publisher receives the event.
			continue
		}
		p.stats.Forwarded++
		if out != nil {
			c.sendTo(out, outDst, c.clonePkt(slot))
		}
		out, outDst = d, action.SetDest
	}
	if out == nil {
		c.releasePkt(slot)
		return
	}
	c.sendTo(out, outDst, slot)
}

// sendTo transmits the packet in slot over d, readdressed to dst when the
// flow action set one — the next switch, if there is one, matches the new
// address, so its lookup key is repacked with it. On a host-facing direction
// there is no next switch: the key is zeroed, not packed, since a host never
// looks it up and atInjection repacks a delivered packet that is sent again.
func (c *shardCtx) sendTo(d *dirState, dst netip.Addr, slot uint32) {
	if dst.IsValid() {
		pkt := &c.slab[slot]
		pkt.Dst = dst
		if d.toHost {
			pkt.dstKey = dz.Key{}
		} else {
			pkt.dstKey, _ = ipmc.KeyFromAddr(dst)
		}
	}
	c.transmit(d, slot)
}

// arriveAtHost applies the host processing model and hands the packet to
// the application. Hosts always share their attached switch's shard, so
// arrivals are shard-local and the mutable host state needs no lock.
func (c *shardCtx) arriveAtHost(h topo.NodeID, slot uint32) {
	now := c.eng.Now()
	hs := c.dp.hosts[h]
	if hs.cfg.CapacityPerSec <= 0 {
		c.deliver(hs, h, slot)
		return
	}
	maxQueue := hs.cfg.MaxQueue
	if maxQueue <= 0 {
		maxQueue = DefaultMaxQueue
	}
	if hs.queued >= maxQueue {
		hs.dropped++
		c.releasePkt(slot)
		return
	}
	service := time.Duration(int64(time.Second) / int64(hs.cfg.CapacityPerSec))
	start := now
	if hs.busyUntil > start {
		start = hs.busyUntil
	}
	done := start + service
	hs.busyUntil = done
	hs.queued++
	c.eng.AtEvent(done, c, sim.Event{Kind: evHostDone, A: int32(h), Ref: slot})
}

// hostDone completes a queued host ingestion and delivers the packet.
func (c *shardCtx) hostDone(h topo.NodeID, slot uint32) {
	hs := c.dp.hosts[h]
	hs.queued--
	c.deliver(hs, h, slot)
}

// deliver counts the packet in slot as received, frees the slot and hands
// the packet to the host's application callback.
func (c *shardCtx) deliver(hs *hostState, h topo.NodeID, slot uint32) {
	hs.received++
	c.dp.obsHostDeliveries.Inc()
	if hs.deliver == nil {
		c.releasePkt(slot)
		return
	}
	dl := Delivery{Host: h, Packet: c.slab[slot], At: c.eng.Now()}
	c.releasePkt(slot)
	hs.deliver(dl)
}
