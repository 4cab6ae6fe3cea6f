// Package interdomain implements PLEROMA's interoperability layer for
// multiple independently controlled partitions (Section 4): border
// discovery (the LLDP extension of Section 4.1), controller-to-controller
// request forwarding through border switch-port tuples, virtual hosts for
// external advertisements and subscriptions, and covering-based
// suppression of redundant inter-partition control traffic (Section 4.2).
//
// A Fabric owns one core.Controller per partition of the topology and
// mediates every publish/subscribe request: local processing happens at
// the partition's own controller, then the request propagates to
// neighbouring partitions where it is replayed as a virtual client
// attached to the receiving border switch. Advertisements flood across all
// partitions; subscriptions follow the reverse paths of the overlapping
// advertisements they match.
package interdomain

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/obs"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/sortutil"
	"pleroma/internal/topo"
)

// BorderPort is one end of an inter-partition link as seen by the local
// partition's controller: the switch-port tuple packets to the neighbour
// leave through, plus the remote end learned during discovery.
type BorderPort struct {
	LocalSwitch  topo.NodeID
	LocalPort    openflow.PortID
	RemotePart   int
	RemoteSwitch topo.NodeID
	RemotePort   openflow.PortID
}

// ControllerLoad counts the control requests one controller received.
type ControllerLoad struct {
	// Internal requests arrive from end hosts of the own partition.
	Internal uint64
	// External requests arrive from neighbouring controllers.
	External uint64
}

// Total returns all requests handled by the controller.
func (l ControllerLoad) Total() uint64 { return l.Internal + l.External }

// Stats aggregates fabric-wide control-plane activity.
type Stats struct {
	// PerController maps partition id to its request load.
	PerController map[int]ControllerLoad
	// MessagesSent counts controller-to-controller messages.
	MessagesSent uint64
	// SuppressedByCovering counts forwardings skipped because a covering
	// request had already been sent to that neighbour.
	SuppressedByCovering uint64
}

// TotalControlTraffic returns internal + external message count — the
// quantity of Figure 7(h).
func (s Stats) TotalControlTraffic() uint64 {
	var t uint64
	for _, l := range s.PerController {
		t += l.Internal
	}
	return t + s.MessagesSent
}

// extAdv records an external advertisement known at one partition.
type extAdv struct {
	origin   string // original advertisement id
	set      dz.Set // subspaces received (cumulative)
	fromPart int    // neighbour partition it arrived from
}

// partitionState is the fabric's bookkeeping for one partition.
type partitionState struct {
	part int
	ctl  *core.Controller
	// degraded publishes ctl's quarantine set to readers on other
	// goroutines (DegradedSwitches, the health endpoint). setController
	// stores it whenever ctl changes; the store is the happens-before edge
	// for a controller built on the driving goroutine, and a reader never
	// loads ctl, which a takeover overwrites.
	degraded atomic.Pointer[core.DegradedSet]
	// borders maps neighbour partition -> ordered border ports (the first
	// one is the canonical crossing used for virtual clients).
	borders map[int][]BorderPort
	// treeNbs marks the neighbours on the partition spanning tree; only
	// these are used for request forwarding and event crossings.
	treeNbs map[int]bool
	// extAdvs lists external advertisements received, in arrival order.
	extAdvs []*extAdv
	// rcvdAdv/rcvdSub accumulate the subspaces already accepted per origin
	// id, so duplicate floodings (cycles in the partition graph) die out.
	rcvdAdv map[string]dz.Set
	rcvdSub map[string]dz.Set
	// fwdAdvByOrigin/fwdSubByOrigin record what was already forwarded per
	// neighbour and origin; per-origin tracking allows rebuilds after
	// removals. The cover indexes hold the cumulative unions per neighbour
	// and drive covering-based suppression via prefix-trie probes.
	fwdAdvByOrigin map[int]map[string]dz.Set
	fwdSubByOrigin map[int]map[string]dz.Set
	fwdAdvCover    map[int]*coverIndex
	fwdSubCover    map[int]*coverIndex
	// localAdvs/localSubs are the partition's own clients. Every set here
	// is shared, with the caller and between these maps: dz.Set operations
	// return new sets and nothing writes into a stored one.
	localAdvs map[string]dz.Set
	localSubs map[string]dz.Set
	// virtual client counters for unique ids.
	vseq int
	load ControllerLoad
	// journal receives the partition controller's control ops when the
	// fabric runs with HA (WithHA); lastSnap holds the latest snapshot
	// taken through SnapshotPartition — together they are what Failover
	// rebuilds from (see ha.go).
	journal  *core.Journal
	lastSnap []byte
}

// Option configures a Fabric.
type Option func(*Fabric)

// WithCovering toggles covering-based forwarding suppression (on by
// default; the ablation benchmark switches it off).
func WithCovering(enabled bool) Option {
	return func(f *Fabric) { f.covering = enabled }
}

// WithControllerOptions passes extra options to every per-partition
// controller.
func WithControllerOptions(opts ...core.Option) Option {
	return func(f *Fabric) { f.ctlOpts = append(f.ctlOpts, opts...) }
}

// WithStaticDiscovery replaces the LLDP probe exchange with a direct read
// of the topology (useful when the caller owns the data plane's punt
// handler or wants zero simulated discovery traffic).
func WithStaticDiscovery() Option {
	return func(f *Fabric) { f.staticDiscovery = true }
}

// WithObservability attaches the fabric's inter-partition control-traffic
// counters to reg and hands the registry and tracer down to every
// per-partition controller (core.WithObservability); the registry merges
// the per-controller instruments into fabric-wide totals at collect time.
func WithObservability(reg *obs.Registry, tracer *obs.Tracer) Option {
	return func(f *Fabric) {
		f.ctlOpts = append(f.ctlOpts, core.WithObservability(reg, tracer))
		if reg != nil {
			f.obsMessages = reg.Counter(obs.MInterdomainMessages, "Controller-to-controller messages sent between partitions.")
			f.obsSuppressed = reg.Counter(obs.MInterdomainSuppressed, "Inter-partition forwardings suppressed by covering (Section 4.2).")
			f.obsFailovers = obs.NewVec[int](obs.NewCounter)
			f.obsEpoch = obs.NewVec[int](obs.NewGauge)
			reg.AttachVec(obs.MFailovers, "Warm-standby controller takeovers, by partition.", "partition", f.obsFailovers)
			reg.AttachVec(obs.MControllerEpoch, "Controller incarnation number, by partition.", "partition", f.obsEpoch)
		}
	}
}

// WithFlowProgrammer makes every per-partition controller program switches
// through p instead of the data plane directly. The fault-injection layer
// uses this to interpose a netem.FaultyProgrammer between controllers and
// the emulated switches; event forwarding and discovery still use the
// underlying data plane.
func WithFlowProgrammer(p core.FlowProgrammer) Option {
	return func(f *Fabric) { f.prog = p }
}

// Fabric manages the controllers of all partitions of a topology.
type Fabric struct {
	g  *topo.Graph
	dp *netem.DataPlane
	// prog is the southbound interface handed to the controllers; it
	// defaults to dp and is overridden by WithFlowProgrammer (e.g. to
	// interpose fault injection).
	prog            core.FlowProgrammer
	parts           map[int]*partitionState
	order           []int
	covering        bool
	staticDiscovery bool
	journalOpen     func(partition int) (*core.Journal, error) // nil without WithHA
	ctlOpts         []core.Option

	messagesSent uint64
	suppressed   uint64
	// obsMessages/obsSuppressed mirror the two counters above into the
	// exported registry when WithObservability is used; nil otherwise.
	obsMessages   *obs.Counter
	obsSuppressed *obs.Counter
	// obsFailovers/obsEpoch export warm-standby takeovers and controller
	// incarnations per partition when observability is attached.
	obsFailovers  *obs.Vec[int, *obs.Counter]
	obsEpoch      *obs.Vec[int, *obs.Gauge]
	signalDelay   time.Duration
	signalStats   SignalStats
	inBandEnabled bool
	// signals holds the in-band requests between their punt and their
	// Apply (see handlePunt).
	signals sim.Slots[SignalRequest]

	// registrations maps an origin client id to the virtual replicas
	// created in other partitions, for teardown.
	advReplicas map[string][]replica
	subReplicas map[string][]replica
	// advHome/subHome record the partition of the original client and its
	// arrival sequence number; rebuilds re-propagate in that order.
	advHome map[string]homeRec
	subHome map[string]homeRec
	regSeq  uint64
}

// homeRec locates an original client's registration: its partition, and its
// position in the arrival order of all registrations (Fabric.regSeq).
type homeRec struct {
	part int
	seq  uint64
}

// arrive records a new registration of id in partition part.
func (f *Fabric) arrive(homes map[string]homeRec, id string, part int) {
	f.regSeq++
	homes[id] = homeRec{part: part, seq: f.regSeq}
}

// inArrivalOrder returns the registered ids, oldest first.
func inArrivalOrder(homes map[string]homeRec) []string {
	return sortutil.KeysBy(homes, func(h homeRec) uint64 { return h.seq })
}

type replica struct {
	part int
	id   string
}

// NewFabric creates one controller per partition and performs border
// discovery. The graph must already be partitioned (topo.PartitionRing or
// topo.PartitionFatTree).
func NewFabric(g *topo.Graph, dp *netem.DataPlane, opts ...Option) (*Fabric, error) {
	f := &Fabric{
		g:           g,
		dp:          dp,
		parts:       make(map[int]*partitionState),
		covering:    true,
		advReplicas: make(map[string][]replica),
		subReplicas: make(map[string][]replica),
		advHome:     make(map[string]homeRec),
		subHome:     make(map[string]homeRec),
	}
	for _, opt := range opts {
		opt(f)
	}
	if f.prog == nil {
		f.prog = dp
	}
	for _, p := range g.Partitions() {
		s := &partitionState{
			part:           p,
			borders:        make(map[int][]BorderPort),
			rcvdAdv:        make(map[string]dz.Set),
			rcvdSub:        make(map[string]dz.Set),
			fwdAdvByOrigin: make(map[int]map[string]dz.Set),
			fwdSubByOrigin: make(map[int]map[string]dz.Set),
			fwdAdvCover:    make(map[int]*coverIndex),
			fwdSubCover:    make(map[int]*coverIndex),
			localAdvs:      make(map[string]dz.Set),
			localSubs:      make(map[string]dz.Set),
		}
		f.parts[p] = s
		if f.journalOpen != nil {
			var err error
			if s.journal, err = f.journalOpen(p); err != nil {
				f.Close()
				return nil, fmt.Errorf("interdomain: open journal for partition %d: %w", p, err)
			}
		}
		ctl, err := core.NewController(g, f.prog, f.controllerOpts(p, s.journal)...)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("interdomain: controller for partition %d: %w", p, err)
		}
		s.setController(ctl)
		f.order = append(f.order, p)
	}
	sort.Ints(f.order)
	if f.staticDiscovery {
		f.discoverBordersStatic()
	} else if err := f.discoverBordersLLDP(); err != nil {
		f.Close()
		return nil, err
	}
	f.buildPartitionTree()
	return f, nil
}

// Close closes the partition journals (a no-op for journals in memory).
// The fabric must not be used afterwards; closing again is harmless.
func (f *Fabric) Close() {
	for _, s := range f.parts {
		if s.journal != nil {
			s.journal.Close()
		}
	}
}

// buildPartitionTree restricts inter-partition request forwarding and
// event crossings to a spanning tree of the partition adjacency graph.
// With a cyclic partition graph, per-advertisement reverse paths recorded
// by different partitions can point opposite ways around a cycle; because
// flows merge by dz regardless of which path installed them, events would
// then circulate the cycle, duplicating deliveries until the hop limit.
// On a tree, non-backtracking walks are simple paths, and the canonical
// border (same physical link both ways) plus ingress-port suppression
// rules out the backtracking case — so every event crosses each partition
// at most once.
func (f *Fabric) buildPartitionTree() {
	for _, p := range f.order {
		f.parts[p].treeNbs = make(map[int]bool)
	}
	if len(f.order) == 0 {
		return
	}
	visited := map[int]bool{f.order[0]: true}
	queue := []int{f.order[0]}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, nb := range f.physicalNeighbors(p) {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			f.parts[p].treeNbs[nb] = true
			f.parts[nb].treeNbs[p] = true
			queue = append(queue, nb)
		}
	}
}

// physicalNeighbors lists every partition reachable over a border link.
func (f *Fabric) physicalNeighbors(partition int) []int {
	s, ok := f.parts[partition]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(s.borders))
	for p := range s.borders {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// discoverBordersStatic derives the border ports directly from the
// topology. It yields exactly the same result as the LLDP exchange (a
// property the tests assert) and both sort by the link-symmetric key so
// the two endpoint partitions agree on the canonical crossing.
func (f *Fabric) discoverBordersStatic() {
	links := f.g.BorderLinks()
	sort.Slice(links, func(i, j int) bool {
		return borderKey(links[i].A, links[i].B) < borderKey(links[j].A, links[j].B)
	})
	for _, l := range links {
		if l.Down {
			continue
		}
		pa := f.g.Partition(l.A)
		pb := f.g.Partition(l.B)
		if sa, ok := f.parts[pa]; ok {
			sa.borders[pb] = append(sa.borders[pb], BorderPort{
				LocalSwitch: l.A, LocalPort: l.APort, RemotePart: pb,
				RemoteSwitch: l.B, RemotePort: l.BPort,
			})
		}
		if sb, ok := f.parts[pb]; ok {
			sb.borders[pa] = append(sb.borders[pa], BorderPort{
				LocalSwitch: l.B, LocalPort: l.BPort, RemotePart: pa,
				RemoteSwitch: l.A, RemotePort: l.APort,
			})
		}
	}
}

// Controller returns the controller of one partition.
func (f *Fabric) Controller(partition int) (*core.Controller, error) {
	s, ok := f.parts[partition]
	if !ok {
		return nil, fmt.Errorf("interdomain: unknown partition %d", partition)
	}
	return s.ctl, nil
}

// Partitions returns the managed partition ids, ascending.
func (f *Fabric) Partitions() []int {
	return append([]int(nil), f.order...)
}

// Neighbors returns the partitions physically adjacent to one partition
// (discovered border links, whether or not they are on the forwarding
// tree).
func (f *Fabric) Neighbors(partition int) []int {
	return f.physicalNeighbors(partition)
}

// TreeNeighbors returns the neighbours used for request forwarding and
// event crossings: the partition's edges on the spanning tree of the
// partition graph.
func (f *Fabric) TreeNeighbors(partition int) []int {
	s, ok := f.parts[partition]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(s.treeNbs))
	for p := range s.treeNbs {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// BorderPorts returns the border ports of a partition towards a neighbour.
func (f *Fabric) BorderPorts(partition, neighbour int) []BorderPort {
	s, ok := f.parts[partition]
	if !ok {
		return nil
	}
	return append([]BorderPort(nil), s.borders[neighbour]...)
}

// Stats returns a snapshot of the fabric's control-plane counters.
func (f *Fabric) Stats() Stats {
	st := Stats{
		PerController:        make(map[int]ControllerLoad, len(f.parts)),
		MessagesSent:         f.messagesSent,
		SuppressedByCovering: f.suppressed,
	}
	for p, s := range f.parts {
		st.PerController[p] = s.load
	}
	return st
}

// RebuildTrees makes every partition controller recompute its spanning
// trees and reinstall its paths — the fabric-wide reaction to a topology
// change such as a link failure.
func (f *Fabric) RebuildTrees() error {
	for _, p := range f.order {
		if _, err := f.parts[p].ctl.RebuildTrees(); err != nil {
			return fmt.Errorf("interdomain: rebuild partition %d: %w", p, err)
		}
	}
	return nil
}

// ResyncAll runs the anti-entropy pass of every partition controller and
// merges the reports. Like the per-controller pass it is best-effort:
// permanent errors from different partitions are joined, transient
// stragglers stay quarantined for the next pass.
func (f *Fabric) ResyncAll() (core.ResyncReport, error) {
	var rr core.ResyncReport
	var errs []error
	for _, p := range f.order {
		one, err := f.parts[p].ctl.ResyncAll()
		if err != nil {
			errs = append(errs, fmt.Errorf("interdomain: resync partition %d: %w", p, err))
		}
		rr.Switches += one.Switches
		rr.FlowAdds += one.FlowAdds
		rr.FlowDeletes += one.FlowDeletes
		rr.FlowModifies += one.FlowModifies
		rr.Retries += one.Retries
		rr.Healed += one.Healed
		rr.SouthboundCalls += one.SouthboundCalls
		rr.StillDegraded = append(rr.StillDegraded, one.StillDegraded...)
	}
	return rr, errors.Join(errs...)
}

// setController makes ctl the partition's controller and publishes its
// quarantine set.
func (s *partitionState) setController(ctl *core.Controller) {
	s.ctl = ctl
	s.degraded.Store(ctl.DegradedSet())
}

// DegradedSwitches returns the quarantined switches across all partition
// controllers, ordered by switch ID. It reads only the published quarantine
// sets, so it is safe from any goroutine, takeovers included.
func (f *Fabric) DegradedSwitches() []core.DegradedSwitch {
	var out []core.DegradedSwitch
	for _, p := range f.order {
		out = append(out, f.parts[p].degraded.Load().Switches()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sw < out[j].Sw })
	return out
}

// VerifyTables cross-checks every partition controller's incremental flow
// state against the canonical derivation (and, through the FlowReader, the
// emulated switch tables); it returns the first inconsistency found.
func (f *Fabric) VerifyTables() error {
	for _, p := range f.order {
		if err := f.parts[p].ctl.VerifyTables(); err != nil {
			return fmt.Errorf("interdomain: partition %d: %w", p, err)
		}
	}
	return nil
}
