// Package topo models the physical network underneath PLEROMA: switches,
// hosts, and links with latency and bandwidth, organised into one or more
// controller partitions. It provides the graph algorithms the controller
// needs (shortest paths, publisher-rooted shortest-path spanning trees) and
// generators for the paper's evaluation topologies (the testbed fat-tree of
// Figure 6 and the Mininet fat-tree/ring with 20 switches).
package topo

import (
	"fmt"
	"sort"
	"time"

	"pleroma/internal/openflow"
)

// NodeID identifies a node (switch or host) in the graph.
type NodeID int

// NodeKind distinguishes switches from hosts.
type NodeKind int

// Node kinds.
const (
	KindSwitch NodeKind = iota + 1
	KindHost
)

func (k NodeKind) String() string {
	switch k {
	case KindSwitch:
		return "switch"
	case KindHost:
		return "host"
	default:
		return "unknown"
	}
}

// Node is a vertex of the topology.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string
	// Partition is the controller domain the node belongs to.
	Partition int
}

// LinkParams carries the physical properties of a link.
type LinkParams struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// BandwidthBps is the link capacity in bits per second; zero means
	// unlimited (no serialization delay).
	BandwidthBps int64
	// QueuePackets bounds the per-direction transmit queue; packets
	// arriving at a full queue are tail-dropped. Zero means unbounded.
	QueuePackets int
}

// DefaultLinkParams mirrors a 1 GbE datacenter link with a short cable.
var DefaultLinkParams = LinkParams{
	Latency:      50 * time.Microsecond,
	BandwidthBps: 1_000_000_000,
}

// Link is an undirected edge between two nodes, attached to one port on
// each side.
type Link struct {
	A, B         NodeID
	APort, BPort openflow.PortID
	Params       LinkParams
	// Down marks a failed link: path computation avoids it and the data
	// plane drops packets sent over it.
	Down bool
}

// Other returns the endpoint opposite to n.
func (l Link) Other(n NodeID) (NodeID, bool) {
	switch n {
	case l.A:
		return l.B, true
	case l.B:
		return l.A, true
	default:
		return 0, false
	}
}

// Neighbor describes one adjacency of a node.
type Neighbor struct {
	Peer NodeID
	Port openflow.PortID
	Link *Link
}

// Graph is the network topology. It is not safe for concurrent mutation.
type Graph struct {
	nodes []Node
	links []*Link
	// adj maps node -> neighbors ordered by local port.
	adj map[NodeID][]Neighbor
	// nextPort tracks per-node port allocation (ports start at 1).
	nextPort map[NodeID]openflow.PortID
	// version counts structural mutations (nodes and links added). Layers
	// that precompute dense views of the adjacency — the data plane's
	// forwarding plan — compare it against the version they compiled from
	// and rebuild when stale. Link state flips (Down) are not structural:
	// they are read live and do not bump the version.
	version uint64
}

// NewGraph returns an empty topology.
func NewGraph() *Graph {
	return &Graph{
		adj:      make(map[NodeID][]Neighbor),
		nextPort: make(map[NodeID]openflow.PortID),
	}
}

// AddSwitch adds a switch node and returns its ID.
func (g *Graph) AddSwitch(name string) NodeID {
	return g.addNode(name, KindSwitch)
}

// AddHost adds a host node and returns its ID.
func (g *Graph) AddHost(name string) NodeID {
	return g.addNode(name, KindHost)
}

func (g *Graph) addNode(name string, kind NodeKind) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Name: name})
	g.nextPort[id] = 1
	g.version++
	return id
}

// Version returns the structural mutation counter: it changes whenever a
// node or link is added, and consumers holding precomputed adjacency (the
// data plane's forwarding plan) use it to detect staleness.
func (g *Graph) Version() uint64 { return g.version }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) (Node, error) {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		return Node{}, fmt.Errorf("topo: unknown node %d", id)
	}
	return g.nodes[id], nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Connect links two nodes with the given parameters and returns the ports
// allocated on each side.
func (g *Graph) Connect(a, b NodeID, params LinkParams) (aPort, bPort openflow.PortID, err error) {
	if _, err := g.Node(a); err != nil {
		return 0, 0, err
	}
	if _, err := g.Node(b); err != nil {
		return 0, 0, err
	}
	if a == b {
		return 0, 0, fmt.Errorf("topo: self-link on node %d", a)
	}
	aPort = g.nextPort[a]
	bPort = g.nextPort[b]
	g.nextPort[a]++
	g.nextPort[b]++
	l := &Link{A: a, B: b, APort: aPort, BPort: bPort, Params: params}
	g.links = append(g.links, l)
	g.adj[a] = append(g.adj[a], Neighbor{Peer: b, Port: aPort, Link: l})
	g.adj[b] = append(g.adj[b], Neighbor{Peer: a, Port: bPort, Link: l})
	g.version++
	return aPort, bPort, nil
}

// Neighbors returns the adjacencies of a node, ordered by local port.
func (g *Graph) Neighbors(n NodeID) []Neighbor {
	return g.adj[n]
}

// PortToPeer resolves a local port to the peer node reachable through it.
func (g *Graph) PortToPeer(n NodeID, port openflow.PortID) (NodeID, bool) {
	for _, nb := range g.adj[n] {
		if nb.Port == port {
			return nb.Peer, true
		}
	}
	return 0, false
}

// PortTowards returns the local port on from that leads directly to peer.
func (g *Graph) PortTowards(from, peer NodeID) (openflow.PortID, bool) {
	for _, nb := range g.adj[from] {
		if nb.Peer == peer {
			return nb.Port, true
		}
	}
	return 0, false
}

// LinkBetween returns the link connecting the two nodes.
func (g *Graph) LinkBetween(a, b NodeID) (*Link, bool) {
	for _, nb := range g.adj[a] {
		if nb.Peer == b {
			return nb.Link, true
		}
	}
	return nil, false
}

// Links returns all links.
func (g *Graph) Links() []*Link { return g.links }

// Nodes returns a copy of all nodes.
func (g *Graph) Nodes() []Node {
	return append([]Node(nil), g.nodes...)
}

// Switches returns the IDs of all switch nodes, ascending.
func (g *Graph) Switches() []NodeID { return g.byKind(KindSwitch) }

// Hosts returns the IDs of all host nodes, ascending.
func (g *Graph) Hosts() []NodeID { return g.byKind(KindHost) }

func (g *Graph) byKind(k NodeKind) []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for _, n := range g.nodes {
		if n.Kind == k {
			out = append(out, n.ID)
		}
	}
	return out
}

// AttachedSwitch returns the switch a host is connected to. Hosts are
// expected to have exactly one link.
func (g *Graph) AttachedSwitch(host NodeID) (NodeID, error) {
	n, err := g.Node(host)
	if err != nil {
		return 0, err
	}
	if n.Kind != KindHost {
		return 0, fmt.Errorf("topo: node %d (%s) is not a host", host, n.Name)
	}
	for _, nb := range g.adj[host] {
		if g.nodes[nb.Peer].Kind == KindSwitch {
			return nb.Peer, nil
		}
	}
	return 0, fmt.Errorf("topo: host %d (%s) has no attached switch", host, n.Name)
}

// SetPartition assigns a node to a controller partition.
func (g *Graph) SetPartition(n NodeID, p int) error {
	if _, err := g.Node(n); err != nil {
		return err
	}
	g.nodes[n].Partition = p
	return nil
}

// Partition returns the partition of a node.
func (g *Graph) Partition(n NodeID) int { return g.nodes[n].Partition }

// Partitions returns the sorted list of distinct partition IDs.
func (g *Graph) Partitions() []int {
	seen := make(map[int]bool)
	for _, n := range g.nodes {
		seen[n.Partition] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// SwitchesInPartition returns the switch IDs of one partition, ascending.
func (g *Graph) SwitchesInPartition(p int) []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == KindSwitch && n.Partition == p {
			out = append(out, n.ID)
		}
	}
	return out
}

// HostsInPartition returns the host IDs of one partition, ascending.
func (g *Graph) HostsInPartition(p int) []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == KindHost && n.Partition == p {
			out = append(out, n.ID)
		}
	}
	return out
}

// SetLinkState marks the link between two nodes as failed or restored.
func (g *Graph) SetLinkState(a, b NodeID, down bool) error {
	l, ok := g.LinkBetween(a, b)
	if !ok {
		return fmt.Errorf("topo: no link between %d and %d", a, b)
	}
	l.Down = down
	return nil
}

// BorderLinks returns the links whose switch endpoints belong to different
// partitions — the inter-partition attachment points of Section 4.
func (g *Graph) BorderLinks() []*Link {
	var out []*Link
	for _, l := range g.links {
		na, nb := g.nodes[l.A], g.nodes[l.B]
		if na.Kind == KindSwitch && nb.Kind == KindSwitch && na.Partition != nb.Partition {
			out = append(out, l)
		}
	}
	return out
}

// InheritHostPartitions assigns every host the partition of its attached
// switch.
func (g *Graph) InheritHostPartitions() error {
	for _, h := range g.Hosts() {
		sw, err := g.AttachedSwitch(h)
		if err != nil {
			return err
		}
		g.nodes[h].Partition = g.nodes[sw].Partition
	}
	return nil
}
