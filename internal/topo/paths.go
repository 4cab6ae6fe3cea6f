package topo

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"pleroma/internal/openflow"
)

// pathItem is a priority-queue entry for Dijkstra.
type pathItem struct {
	node NodeID
	dist time.Duration
	hops int
}

type pathHeap []pathItem

func (h pathHeap) Len() int { return len(h) }

func (h pathHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	if h[i].hops != h[j].hops {
		return h[i].hops < h[j].hops
	}
	return h[i].node < h[j].node
}

func (h pathHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *pathHeap) Push(x any) {
	it, ok := x.(pathItem)
	if !ok {
		return
	}
	*h = append(*h, it)
}

func (h *pathHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// tieHash mixes the root and a candidate parent into a deterministic but
// root-dependent ordering. Different spanning-tree roots therefore spread
// across equal-cost paths (ECMP-style), which is what lets PLEROMA's
// multiple trees balance link load (Section 3.1); a fixed lowest-ID rule
// would collapse every tree onto the same edges.
func tieHash(root, candidate NodeID) uint64 {
	x := uint64(root)*0x9e3779b97f4a7c15 ^ uint64(candidate)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x
}

// dijkstra computes shortest latency distances and deterministic parent
// pointers from root, visiting only nodes accepted by include (nil accepts
// everything). Ties are broken by hop count, then by a root-salted hash,
// so results are reproducible per root but diverse across roots.
func (g *Graph) dijkstra(root NodeID, include func(NodeID) bool) (map[NodeID]NodeID, map[NodeID]time.Duration) {
	parent := make(map[NodeID]NodeID)
	dist := make(map[NodeID]time.Duration)
	hops := make(map[NodeID]int)
	visited := make(map[NodeID]bool)
	pq := &pathHeap{{node: root, dist: 0, hops: 0}}
	dist[root] = 0
	parent[root] = root
	for pq.Len() > 0 {
		it, _ := heap.Pop(pq).(pathItem)
		if visited[it.node] {
			continue
		}
		visited[it.node] = true
		// Hosts never relay traffic: they may only be leaves of any path.
		if g.nodes[it.node].Kind == KindHost && it.node != root {
			continue
		}
		for _, nb := range g.adj[it.node] {
			if nb.Link.Down {
				continue
			}
			if include != nil && !include(nb.Peer) {
				continue
			}
			nd := it.dist + nb.Link.Params.Latency
			nh := it.hops + 1
			old, seen := dist[nb.Peer]
			better := !seen || nd < old ||
				(nd == old && (nh < hops[nb.Peer] ||
					(nh == hops[nb.Peer] &&
						tieHash(root, it.node) < tieHash(root, parent[nb.Peer]))))
			if better && !visited[nb.Peer] {
				dist[nb.Peer] = nd
				hops[nb.Peer] = nh
				parent[nb.Peer] = it.node
				heap.Push(pq, pathItem{node: nb.Peer, dist: nd, hops: nh})
			}
		}
	}
	return parent, dist
}

// ShortestPath returns the minimum-latency node sequence from a to b
// (inclusive). Hosts other than the endpoints never relay.
func (g *Graph) ShortestPath(a, b NodeID) ([]NodeID, error) {
	if _, err := g.Node(a); err != nil {
		return nil, err
	}
	if _, err := g.Node(b); err != nil {
		return nil, err
	}
	parent, dist := g.dijkstra(a, nil)
	if _, ok := dist[b]; !ok {
		return nil, fmt.Errorf("topo: no path from %d to %d", a, b)
	}
	var rev []NodeID
	for n := b; ; n = parent[n] {
		rev = append(rev, n)
		if n == a {
			break
		}
	}
	path := make([]NodeID, len(rev))
	for i, n := range rev {
		path[len(rev)-1-i] = n
	}
	return path, nil
}

// SpanningTree is a rooted tree embedded in the graph; PLEROMA builds one
// per dissemination tree, rooted at the publisher that created it
// (Section 3.2).
type SpanningTree struct {
	Root NodeID
	// parent maps every reachable node to its parent; the root maps to
	// itself.
	parent map[NodeID]NodeID
	g      *Graph
}

// ShortestPathTree builds a shortest-path spanning tree rooted at root,
// covering every node accepted by include (nil covers all).
func (g *Graph) ShortestPathTree(root NodeID, include func(NodeID) bool) (*SpanningTree, error) {
	if _, err := g.Node(root); err != nil {
		return nil, err
	}
	parent, _ := g.dijkstra(root, include)
	return &SpanningTree{Root: root, parent: parent, g: g}, nil
}

// Contains reports whether the node is part of the tree.
func (t *SpanningTree) Contains(n NodeID) bool {
	_, ok := t.parent[n]
	return ok
}

// Parent returns the tree parent of n (the root's parent is itself).
func (t *SpanningTree) Parent(n NodeID) (NodeID, bool) {
	p, ok := t.parent[n]
	return p, ok
}

// Nodes returns all nodes of the tree in ascending ID order.
func (t *SpanningTree) Nodes() []NodeID {
	out := make([]NodeID, 0, len(t.parent))
	for n := range t.parent {
		out = append(out, n)
	}
	sortNodeIDs(out)
	return out
}

// PathToRoot returns the node sequence from n up to the root (inclusive).
func (t *SpanningTree) PathToRoot(n NodeID) ([]NodeID, error) {
	if !t.Contains(n) {
		return nil, fmt.Errorf("topo: node %d not in tree rooted at %d", n, t.Root)
	}
	var path []NodeID
	for cur := n; ; {
		path = append(path, cur)
		if cur == t.Root {
			return path, nil
		}
		next := t.parent[cur]
		if next == cur {
			return path, nil
		}
		cur = next
	}
}

// PathBetween returns the unique tree path from a to b (inclusive): up from
// a to the lowest common ancestor, then down to b.
func (t *SpanningTree) PathBetween(a, b NodeID) ([]NodeID, error) {
	pa, err := t.PathToRoot(a)
	if err != nil {
		return nil, err
	}
	pb, err := t.PathToRoot(b)
	if err != nil {
		return nil, err
	}
	onPA := make(map[NodeID]int, len(pa))
	for i, n := range pa {
		onPA[n] = i
	}
	// Find the first node of pb that is on pa: the LCA.
	for j, n := range pb {
		if i, ok := onPA[n]; ok {
			path := make([]NodeID, 0, i+j+1)
			path = append(path, pa[:i+1]...)
			for k := j - 1; k >= 0; k-- {
				path = append(path, pb[k])
			}
			return path, nil
		}
	}
	return nil, fmt.Errorf("topo: nodes %d and %d share no ancestor in tree %d", a, b, t.Root)
}

// Hop is one forwarding step of a route: a switch and the out port a
// matching packet leaves through.
type Hop struct {
	Switch  NodeID
	OutPort openflow.PortID
}

// RouteHops converts a node path into the list of (switch, out-port) pairs
// the controller must program: for every switch on the path (excluding
// hosts) the port towards the next node.
func (g *Graph) RouteHops(path []NodeID) ([]Hop, error) {
	var hops []Hop
	for i := 0; i+1 < len(path); i++ {
		n, err := g.Node(path[i])
		if err != nil {
			return nil, err
		}
		if n.Kind != KindSwitch {
			continue
		}
		port, ok := g.PortTowards(path[i], path[i+1])
		if !ok {
			return nil, fmt.Errorf("topo: no port from %d towards %d", path[i], path[i+1])
		}
		hops = append(hops, Hop{Switch: path[i], OutPort: port})
	}
	return hops, nil
}

func sortNodeIDs(ids []NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
