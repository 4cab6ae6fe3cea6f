package topo

import (
	"fmt"
	"testing"
	"time"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	s1 := g.AddSwitch("s1")
	s2 := g.AddSwitch("s2")
	h1 := g.AddHost("h1")

	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes=%d", g.NumNodes())
	}
	p1, p2, err := g.Connect(s1, s2, DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != 1 || p2 != 1 {
		t.Errorf("ports=(%d,%d), want (1,1)", p1, p2)
	}
	p3, _, err := g.Connect(s1, h1, DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != 2 {
		t.Errorf("second port on s1=%d, want 2", p3)
	}
	if _, _, err := g.Connect(s1, s1, DefaultLinkParams); err == nil {
		t.Error("self link must fail")
	}
	if _, _, err := g.Connect(s1, NodeID(99), DefaultLinkParams); err == nil {
		t.Error("unknown node must fail")
	}

	peer, ok := g.PortToPeer(s1, 1)
	if !ok || peer != s2 {
		t.Errorf("PortToPeer=(%d,%v)", peer, ok)
	}
	port, ok := g.PortTowards(s1, h1)
	if !ok || port != 2 {
		t.Errorf("PortTowards=(%d,%v)", port, ok)
	}
	if _, ok := g.PortTowards(s2, h1); ok {
		t.Error("no port s2->h1")
	}
	l, ok := g.LinkBetween(s1, s2)
	if !ok {
		t.Fatal("LinkBetween missing")
	}
	other, ok := l.Other(s1)
	if !ok || other != s2 {
		t.Errorf("Other=(%d,%v)", other, ok)
	}
	if _, ok := l.Other(h1); ok {
		t.Error("Other with non-endpoint must fail")
	}

	sw := g.Switches()
	if len(sw) != 2 || sw[0] != s1 || sw[1] != s2 {
		t.Errorf("Switches=%v", sw)
	}
	if hosts := g.Hosts(); len(hosts) != 1 || hosts[0] != h1 {
		t.Errorf("Hosts=%v", hosts)
	}
	att, err := g.AttachedSwitch(h1)
	if err != nil || att != s1 {
		t.Errorf("AttachedSwitch=(%d,%v)", att, err)
	}
	if _, err := g.AttachedSwitch(s1); err == nil {
		t.Error("AttachedSwitch on switch must fail")
	}
}

func TestNodeKindString(t *testing.T) {
	if KindSwitch.String() != "switch" || KindHost.String() != "host" {
		t.Error("kind strings wrong")
	}
	if NodeKind(0).String() != "unknown" {
		t.Error("zero kind must be unknown")
	}
}

func TestTestbedFatTree(t *testing.T) {
	g, err := TestbedFatTree(DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Switches()); got != 10 {
		t.Errorf("switches=%d, want 10", got)
	}
	if got := len(g.Hosts()); got != 8 {
		t.Errorf("hosts=%d, want 8", got)
	}
	// Every host can reach every other host.
	hosts := g.Hosts()
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			if _, err := g.ShortestPath(a, b); err != nil {
				t.Fatalf("no path %d->%d: %v", a, b, err)
			}
		}
	}
}

func TestFatTree20Switches(t *testing.T) {
	// The Mininet configuration: 4 pods × 4 switches + 4 cores = 20.
	g, err := FatTree(4, 4, 1, DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Switches()); got != 20 {
		t.Errorf("switches=%d, want 20", got)
	}
	if got := len(g.Hosts()); got != 8 {
		t.Errorf("hosts=%d, want 8", got)
	}
	if _, err := FatTree(0, 1, 1, DefaultLinkParams); err == nil {
		t.Error("invalid shape must fail")
	}
}

func TestRing(t *testing.T) {
	g, err := Ring(20, DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Switches()); got != 20 {
		t.Errorf("switches=%d", got)
	}
	if got := len(g.Hosts()); got != 20 {
		t.Errorf("hosts=%d", got)
	}
	if _, err := Ring(2, DefaultLinkParams); err == nil {
		t.Error("tiny ring must fail")
	}
	// Path between opposite hosts takes the short way around: 20-ring,
	// hosts attach to R1 and R11, 10 switch-switch hops either way plus 2
	// host links = 12 nodes... just verify existence and symmetry.
	hosts := g.Hosts()
	p, err := g.ShortestPath(hosts[0], hosts[10])
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 13 { // h, R1..R11 (11 switches), h
		t.Errorf("path len=%d, want 13", len(p))
	}
}

func TestLinear(t *testing.T) {
	g, err := Linear(5, DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	p, err := g.ShortestPath(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 7 { // h1, R1..R5, h2
		t.Errorf("path len=%d, want 7", len(p))
	}
	lat, err := g.PathLatency(p)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 6*DefaultLinkParams.Latency {
		t.Errorf("latency=%v", lat)
	}
	if _, err := Linear(0, DefaultLinkParams); err == nil {
		t.Error("empty linear must fail")
	}
}

func TestShortestPathHostsDoNotRelay(t *testing.T) {
	// Two switches joined only through a host must be unreachable.
	g := NewGraph()
	s1 := g.AddSwitch("s1")
	s2 := g.AddSwitch("s2")
	h := g.AddHost("h")
	if _, _, err := g.Connect(s1, h, DefaultLinkParams); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Connect(h, s2, DefaultLinkParams); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ShortestPath(s1, s2); err == nil {
		t.Error("path through host must not exist")
	}
	// But from the host itself both switches are reachable.
	if _, err := g.ShortestPath(h, s2); err != nil {
		t.Errorf("host-rooted path must exist: %v", err)
	}
}

func TestSpanningTreePaths(t *testing.T) {
	g, err := TestbedFatTree(DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	root := hosts[0]
	tree, err := g.ShortestPathTree(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Contains(root) {
		t.Fatal("tree must contain root")
	}
	for _, h := range hosts {
		if !tree.Contains(h) {
			t.Fatalf("tree must span host %d", h)
		}
		p, err := tree.PathToRoot(h)
		if err != nil {
			t.Fatal(err)
		}
		if p[len(p)-1] != root {
			t.Fatalf("path must end at root, got %v", p)
		}
	}
	// PathBetween two sibling hosts passes their common ancestor once.
	p, err := tree.PathBetween(hosts[1], hosts[2])
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[NodeID]bool)
	for _, n := range p {
		if seen[n] {
			t.Fatalf("path %v revisits node %d", p, n)
		}
		seen[n] = true
	}
	if p[0] != hosts[1] || p[len(p)-1] != hosts[2] {
		t.Fatalf("path endpoints wrong: %v", p)
	}
	if _, err := tree.PathToRoot(NodeID(999)); err == nil {
		t.Error("unknown node must fail")
	}
}

func TestRouteHops(t *testing.T) {
	g, err := Linear(3, DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	p, err := g.ShortestPath(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	hops, err := g.RouteHops(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 3 {
		t.Fatalf("hops=%v, want 3 switches", hops)
	}
	// Each hop's out port must lead to the next node on the path.
	for i, hop := range hops {
		peer, ok := g.PortToPeer(hop.Switch, hop.OutPort)
		if !ok {
			t.Fatalf("hop %d: invalid port", i)
		}
		found := false
		for _, n := range p {
			if n == peer {
				found = true
			}
		}
		if !found {
			t.Fatalf("hop %d leads to %d which is off-path %v", i, peer, p)
		}
	}
}

func TestPartitionRing(t *testing.T) {
	g, err := Ring(20, DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := PartitionRing(g, 4); err != nil {
		t.Fatal(err)
	}
	if got := g.Partitions(); len(got) != 4 {
		t.Errorf("partitions=%v", got)
	}
	for p := 0; p < 4; p++ {
		if got := len(g.SwitchesInPartition(p)); got != 5 {
			t.Errorf("partition %d has %d switches, want 5", p, got)
		}
		if got := len(g.HostsInPartition(p)); got != 5 {
			t.Errorf("partition %d has %d hosts, want 5", p, got)
		}
	}
	// A ring split into 4 arcs has exactly 4 border links.
	if got := len(g.BorderLinks()); got != 4 {
		t.Errorf("border links=%d, want 4", got)
	}
	if err := PartitionRing(g, 0); err == nil {
		t.Error("zero partitions must fail")
	}
	if err := PartitionRing(g, 21); err == nil {
		t.Error("too many partitions must fail")
	}
}

func TestPartitionRingUneven(t *testing.T) {
	g, err := Ring(5, DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := PartitionRing(g, 2); err != nil {
		t.Fatal(err)
	}
	total := len(g.SwitchesInPartition(0)) + len(g.SwitchesInPartition(1))
	if total != 5 {
		t.Errorf("switch total=%d", total)
	}
}

func TestPartitionFatTree(t *testing.T) {
	g, err := FatTree(4, 4, 1, DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := PartitionFatTree(g, 4); err != nil {
		t.Fatal(err)
	}
	parts := g.Partitions()
	if len(parts) != 4 {
		t.Errorf("partitions=%v", parts)
	}
	if len(g.BorderLinks()) == 0 {
		t.Error("fat-tree partitions must have border links")
	}
	if err := PartitionFatTree(g, 0); err == nil {
		t.Error("zero partitions must fail")
	}
}

func TestDijkstraDeterminism(t *testing.T) {
	g, err := TestbedFatTree(DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	p1, err := g.ShortestPath(hosts[0], hosts[7])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p2, err := g.ShortestPath(hosts[0], hosts[7])
		if err != nil {
			t.Fatal(err)
		}
		if len(p1) != len(p2) {
			t.Fatal("nondeterministic path length")
		}
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatal("nondeterministic path")
			}
		}
	}
}

func TestShortestPathErrors(t *testing.T) {
	g := NewGraph()
	s := g.AddSwitch("s")
	if _, err := g.ShortestPath(NodeID(9), s); err == nil {
		t.Error("unknown source must fail")
	}
	if _, err := g.ShortestPath(s, NodeID(9)); err == nil {
		t.Error("unknown target must fail")
	}
	if _, err := g.ShortestPathTree(NodeID(9), nil); err == nil {
		t.Error("unknown root must fail")
	}
}

func TestSpanningTreeRestricted(t *testing.T) {
	g, err := Ring(6, DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := PartitionRing(g, 2); err != nil {
		t.Fatal(err)
	}
	// Tree restricted to partition 0 must not contain partition-1 nodes.
	sw0 := g.SwitchesInPartition(0)
	tree, err := g.ShortestPathTree(sw0[0], func(n NodeID) bool {
		return g.Partition(n) == 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tree.Nodes() {
		if g.Partition(n) != 0 {
			t.Errorf("tree contains foreign node %d", n)
		}
	}
}

func TestLinkParamsLatency(t *testing.T) {
	custom := LinkParams{Latency: time.Millisecond, BandwidthBps: 0}
	g, err := Linear(2, custom)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	p, err := g.ShortestPath(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	lat, err := g.PathLatency(p)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 3*time.Millisecond {
		t.Errorf("latency=%v, want 3ms", lat)
	}
}

// PathLatency sums the link latencies along a node path.
func (g *Graph) PathLatency(path []NodeID) (time.Duration, error) {
	var total time.Duration
	for i := 0; i+1 < len(path); i++ {
		l, ok := g.LinkBetween(path[i], path[i+1])
		if !ok {
			return 0, fmt.Errorf("topo: no link between %d and %d", path[i], path[i+1])
		}
		total += l.Params.Latency
	}
	return total, nil
}
