package experiments

import (
	"fmt"
	"time"

	"pleroma"
	"pleroma/internal/broker"
	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/interdomain"
	"pleroma/internal/metrics"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
	"pleroma/internal/workload"
)

// RunAblationBrokerVsSDN compares PLEROMA's in-network filtering against
// the application-layer broker overlay baseline on identical topology and
// workload — quantifying the Section 1 motivation: broker hops add
// software matching delay on the data path.
func RunAblationBrokerVsSDN(cfg Config) ([]*metrics.Table, error) {
	nSubs := pick(cfg, 200, 1000)
	nEvents := pick(cfg, 200, 2000)

	sch, err := space.UniformSchema(fig7bDims)
	if err != nil {
		return nil, err
	}
	gen, err := workload.New(sch, workload.Zipfian, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rects := gen.SubscriptionRects(nSubs)
	events := gen.Events(nEvents)

	table := &metrics.Table{
		Title:   "Ablation: broker overlay vs. PLEROMA in-network filtering",
		Columns: []string{"system", "mean-delay", "p99-delay", "deliveries"},
	}

	// --- PLEROMA: the Figure 7(b) deployment ---
	{
		sys, err := newSystem(sch)
		if err != nil {
			return nil, err
		}
		defer sys.Close()
		lat := &metrics.Latency{}
		if err := fanout(sys, rects, events, time.Millisecond, func(d pleroma.Delivery) {
			if !d.FalsePositive {
				lat.Add(d.Latency)
			}
		}); err != nil {
			return nil, err
		}
		table.AddRow("pleroma", lat.Mean(), lat.Percentile(0.99), lat.Count())
	}

	// --- broker overlay ---
	{
		g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
		if err != nil {
			return nil, err
		}
		eng := sim.NewEngine()
		lat := &metrics.Latency{}
		o, err := broker.New(g, eng, broker.DefaultConfig, func(d broker.Delivery) {
			lat.Add(d.At - d.SentAt)
		})
		if err != nil {
			return nil, err
		}
		hosts := g.Hosts()
		pub := hosts[0]
		for i, r := range rects {
			if err := o.Subscribe(fmt.Sprintf("s%d", i), hosts[1+i%(len(hosts)-1)], r); err != nil {
				return nil, err
			}
		}
		for i, ev := range events {
			if err := o.PublishAt(time.Duration(i)*time.Millisecond, pub, ev); err != nil {
				return nil, err
			}
		}
		eng.Run()
		table.AddRow("broker", lat.Mean(), lat.Percentile(0.99), lat.Count())
	}
	return []*metrics.Table{table}, nil
}

// RunAblationTreeStrategy quantifies the Section 3.1 design choice:
// per-publisher spanning trees versus one shared tree (forced by a
// merge threshold of 1). Multiple trees spread traffic over more links,
// reducing the load of the hottest link.
func RunAblationTreeStrategy(cfg Config) ([]*metrics.Table, error) {
	nEvents := pick(cfg, 400, 4000)

	table := &metrics.Table{
		Title: "Ablation: single shared tree vs. per-publisher trees",
		Columns: []string{"strategy", "trees", "max-link-packets",
			"total-link-packets", "mean-delay"},
	}
	for _, maxTrees := range []int{1, 0} { // 1 = forced single tree, 0 = unlimited
		name := "multi-tree"
		if maxTrees == 1 {
			name = "single-tree"
		}
		trees, maxLink, totalLink, mean, err := ablationTreesRun(cfg.Seed, maxTrees, nEvents)
		if err != nil {
			return nil, err
		}
		table.AddRow(name, trees, maxLink, totalLink, mean)
	}
	return []*metrics.Table{table}, nil
}

func ablationTreesRun(seed int64, maxTrees, nEvents int) (trees int, maxLink, totalLink uint64, mean time.Duration, err error) {
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	eng := sim.NewEngine()
	dp := netem.New(g, eng)
	opts := []core.Option{core.WithHostAddr(netem.HostAddr)}
	if maxTrees > 0 {
		opts = append(opts, core.WithMaxTrees(maxTrees))
	}
	ctl, err := core.NewController(g, dp, opts...)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	sch, err := space.UniformSchema(2)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	hosts := g.Hosts()

	// Four publishers in different pods, each owning one quadrant of the
	// event space; every remaining host subscribes to everything.
	quadrants := []dz.Expr{"00", "01", "10", "11"}
	pubs := []topo.NodeID{hosts[0], hosts[2], hosts[4], hosts[6]}
	for i, q := range quadrants {
		if _, err := ctl.Advertise(fmt.Sprintf("p%d", i), pubs[i], dz.NewSet(q)); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	subsHosts := []topo.NodeID{hosts[1], hosts[3], hosts[5], hosts[7]}
	for i, h := range subsHosts {
		if _, err := ctl.Subscribe(fmt.Sprintf("s%d", i), h, dz.NewSet(dz.Whole)); err != nil {
			return 0, 0, 0, 0, err
		}
	}

	lat := &metrics.Latency{}
	for _, h := range subsHosts {
		if err := dp.ConfigureHost(h, netem.HostConfig{}, func(d netem.Delivery) {
			lat.Add(d.At - d.Packet.SentAt)
		}); err != nil {
			return 0, 0, 0, 0, err
		}
	}

	gen, err := workload.New(sch, workload.Uniform, seed)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	maxLen := sch.Geometry().MaxLen()
	for i, ev := range gen.Events(nEvents) {
		expr, encErr := sch.Encode(ev, maxLen)
		if encErr != nil {
			return 0, 0, 0, 0, encErr
		}
		pub := pubs[quadrantOf(expr)]
		at := time.Duration(i) * 100 * time.Microsecond
		if err := dp.PublishAt(at, pub, expr, ev, netem.DefaultPacketSize); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	eng.Run()

	for _, l := range g.Links() {
		// Only switch-switch links reflect the tree embedding; host access
		// links carry all deliveries under either strategy.
		na, errA := g.Node(l.A)
		nb, errB := g.Node(l.B)
		if errA != nil || errB != nil ||
			na.Kind != topo.KindSwitch || nb.Kind != topo.KindSwitch {
			continue
		}
		if ls := dp.LinkStatsFor(l); ls != nil {
			var linkTotal uint64
			for _, c := range ls.Packets {
				linkTotal += c
			}
			totalLink += linkTotal
			if linkTotal > maxLink {
				maxLink = linkTotal
			}
		}
	}
	return len(ctl.Trees()), maxLink, totalLink, lat.Mean(), nil
}

// quadrantOf maps the first two dz bits to a publisher index.
func quadrantOf(expr dz.Expr) int {
	idx := 0
	if expr.Len() > 0 && expr[0] == '1' {
		idx += 2
	}
	if expr.Len() > 1 && expr[1] == '1' {
		idx++
	}
	return idx
}

// RunAblationCoveringForwarding toggles the covering-based suppression of
// inter-partition request forwarding (Section 4.2) and reports the
// control-message difference on a partitioned ring.
func RunAblationCoveringForwarding(cfg Config) ([]*metrics.Table, error) {
	nSubs := pick(cfg, 150, 400)

	table := &metrics.Table{
		Title:   "Ablation: covering-based inter-domain forwarding",
		Columns: []string{"covering", "messages-sent", "suppressed", "total-traffic"},
	}
	for _, covering := range []bool{true, false} {
		st, err := ablationCoveringRun(cfg.Seed, nSubs, covering)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprint(covering), st.MessagesSent, st.SuppressedByCovering, st.TotalControlTraffic())
	}
	return []*metrics.Table{table}, nil
}

// fig7gSwitches is the Mininet scale of the paper (20 switches), the ring
// of Figures 7(g) and 7(h).
const fig7gSwitches = 20

func ablationCoveringRun(seed int64, nSubs int, covering bool) (interdomain.Stats, error) {
	g, err := topo.Ring(fig7gSwitches, topo.DefaultLinkParams)
	if err != nil {
		return interdomain.Stats{}, err
	}
	if err := topo.PartitionRing(g, 5); err != nil {
		return interdomain.Stats{}, err
	}
	dp := netem.New(g, sim.NewEngine())
	fab, err := interdomain.NewFabric(g, dp, interdomain.WithCovering(covering))
	if err != nil {
		return interdomain.Stats{}, err
	}
	sch, err := space.UniformSchema(2)
	if err != nil {
		return interdomain.Stats{}, err
	}
	gen, err := workload.New(sch, workload.Zipfian, seed)
	if err != nil {
		return interdomain.Stats{}, err
	}
	hosts := g.Hosts()
	whole, err := sch.DecomposeLimited(space.NewFilter(), fig7bMaxDzLen, fig7bMaxSubspaces)
	if err != nil {
		return interdomain.Stats{}, err
	}
	if err := fab.Advertise("pub", hosts[0], whole); err != nil {
		return interdomain.Stats{}, err
	}
	for i := 0; i < nSubs; i++ {
		set, err := sch.DecomposeRectLimited(gen.SubscriptionRect(), fig7bMaxDzLen, fig7bMaxSubspaces)
		if err != nil {
			return interdomain.Stats{}, err
		}
		if err := fab.Subscribe(fmt.Sprintf("s%d", i), hosts[1+i%(len(hosts)-1)], set); err != nil {
			return interdomain.Stats{}, err
		}
	}
	return fab.Stats(), nil
}
