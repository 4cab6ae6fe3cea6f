// Command pleroma-topo builds a PLEROMA deployment over one of the
// evaluation topologies, drives a small random workload through the
// controllers, and dumps the resulting state: partitions and border
// ports, dissemination trees, and per-switch flow tables. It is the
// debugging companion to cmd/dzcalc.
//
// Usage:
//
//	pleroma-topo -topology ring20 -partitions 4 -advs 2 -subs 6
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pleroma/internal/interdomain"
	"pleroma/internal/ipmc"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
	"pleroma/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pleroma-topo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pleroma-topo", flag.ContinueOnError)
	var (
		topoName   = fs.String("topology", "testbed", "testbed | fattree20 | ring20")
		partitions = fs.Int("partitions", 1, "number of controller partitions")
		advs       = fs.Int("advs", 2, "number of advertisements")
		subs       = fs.Int("subs", 4, "number of subscriptions")
		seed       = fs.Int64("seed", 42, "workload seed")
		maxDzLen   = fs.Int("maxlen", 12, "maximum dz length")
		dot        = fs.Bool("dot", false, "emit the topology as Graphviz DOT")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := buildTopology(*topoName, *partitions)
	if err != nil {
		return err
	}
	dp := netem.New(g, sim.NewEngine())
	fab, err := interdomain.NewFabric(g, dp)
	if err != nil {
		return err
	}
	sch, err := space.UniformSchema(2)
	if err != nil {
		return err
	}
	gen, err := workload.New(sch, workload.Zipfian, *seed)
	if err != nil {
		return err
	}
	hosts := g.Hosts()
	for i := 0; i < *advs; i++ {
		set, err := sch.DecomposeRectLimited(gen.SubscriptionRect(), *maxDzLen, 8)
		if err != nil {
			return err
		}
		host := hosts[(i*len(hosts)/max(*advs, 1))%len(hosts)]
		if err := fab.Advertise(fmt.Sprintf("p%d", i), host, set); err != nil {
			return err
		}
	}
	for i := 0; i < *subs; i++ {
		set, err := sch.DecomposeRectLimited(gen.SubscriptionRect(), *maxDzLen, 8)
		if err != nil {
			return err
		}
		if err := fab.Subscribe(fmt.Sprintf("s%d", i), hosts[(i*3+1)%len(hosts)], set); err != nil {
			return err
		}
	}

	if *dot {
		return dumpDot(os.Stdout, g)
	}
	dump(g, dp, fab)
	return nil
}

// dotPalette colours partitions in DOT output.
var dotPalette = []string{
	"lightblue", "lightgreen", "lightsalmon", "lightyellow",
	"plum", "lightcyan", "wheat", "mistyrose", "honeydew", "lavender",
}

// dumpDot renders the topology as a Graphviz graph: switches as circles
// coloured by partition, hosts as boxes, failed links dashed.
func dumpDot(w io.Writer, g *topo.Graph) error {
	if _, err := fmt.Fprintln(w, "graph pleroma {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  layout=neato; overlap=false;")
	for _, n := range g.Nodes() {
		color := dotPalette[n.Partition%len(dotPalette)]
		shape := "circle"
		if n.Kind == topo.KindHost {
			shape = "box"
		}
		fmt.Fprintf(w, "  n%d [label=%q shape=%s style=filled fillcolor=%s];\n",
			n.ID, n.Name, shape, color)
	}
	for _, l := range g.Links() {
		style := "solid"
		if l.Down {
			style = "dashed"
		}
		fmt.Fprintf(w, "  n%d -- n%d [style=%s];\n", l.A, l.B, style)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

func buildTopology(name string, partitions int) (*topo.Graph, error) {
	switch name {
	case "testbed":
		if partitions > 1 {
			return nil, fmt.Errorf("testbed supports a single partition")
		}
		return topo.TestbedFatTree(topo.DefaultLinkParams)
	case "fattree20":
		g, err := topo.FatTree(4, 4, 1, topo.DefaultLinkParams)
		if err != nil {
			return nil, err
		}
		if partitions > 1 {
			if err := topo.PartitionFatTree(g, partitions); err != nil {
				return nil, err
			}
		}
		return g, nil
	case "ring20":
		g, err := topo.Ring(20, topo.DefaultLinkParams)
		if err != nil {
			return nil, err
		}
		if err := topo.PartitionRing(g, partitions); err != nil {
			return nil, err
		}
		return g, nil
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}

func dump(g *topo.Graph, dp *netem.DataPlane, fab *interdomain.Fabric) {
	fmt.Printf("topology: %d switches, %d hosts, %d links\n",
		len(g.Switches()), len(g.Hosts()), len(g.Links()))

	for _, p := range fab.Partitions() {
		fmt.Printf("\n== partition %d ==\n", p)
		fmt.Printf("switches:")
		for _, sw := range g.SwitchesInPartition(p) {
			n, _ := g.Node(sw)
			fmt.Printf(" %s", n.Name)
		}
		fmt.Println()
		for _, nb := range fab.Neighbors(p) {
			for _, bp := range fab.BorderPorts(p, nb) {
				local, _ := g.Node(bp.LocalSwitch)
				remote, _ := g.Node(bp.RemoteSwitch)
				fmt.Printf("border to partition %d: %s port %d ⇄ %s port %d\n",
					nb, local.Name, bp.LocalPort, remote.Name, bp.RemotePort)
			}
		}
		ctl, err := fab.Controller(p)
		if err != nil {
			continue
		}
		for _, tr := range ctl.Trees() {
			root, _ := g.Node(tr.Root)
			fmt.Printf("tree %d: DZ=%s root=%s pubs=%v subs=%v\n",
				tr.ID, tr.DZ, root.Name, tr.Publishers, tr.Subscribers)
		}
		if stored := ctl.StoredSubscriptions(); len(stored) > 0 {
			fmt.Printf("stored subscriptions: %v\n", stored)
		}
	}

	fmt.Println("\n== flow tables ==")
	for _, sw := range g.Switches() {
		flows, err := dp.Flows(sw)
		if err != nil || len(flows) == 0 {
			continue
		}
		n, _ := g.Node(sw)
		fmt.Printf("%s:\n", n.Name)
		for _, fl := range flows {
			match, _ := ipmc.FromExpr(fl.Expr()) // installed: the key fits an address
			fmt.Printf("  %s   match %s\n", fl.String(), match)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
