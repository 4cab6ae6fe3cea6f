package experiments

import (
	"fmt"
	"time"

	"pleroma/internal/core"
	"pleroma/internal/metrics"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
	"pleroma/internal/workload"
)

// RunAblationMergeThreshold sweeps the tree-merge threshold of Section
// 3.2: a low threshold folds everything into few coarse trees (cheap tree
// maintenance, all paths share one root's tree), a high threshold keeps
// one tree per advertisement (shorter publisher-rooted paths, more trees
// to maintain). The sweep reports the resulting tree count, the total
// FlowMod work, the installed flow footprint, and the mean delivery
// delay.
func RunAblationMergeThreshold(cfg Config) ([]*metrics.Table, error) {
	nAdvs := pick(cfg, 12, 24)
	nSubs := pick(cfg, 60, 240)
	nEvents := pick(cfg, 300, 2000)

	table := &metrics.Table{
		Title: "Ablation: tree-merge threshold (Section 3.2)",
		Columns: []string{"max-trees", "trees", "merges", "flow-ops",
			"installed-flows", "mean-delay"},
	}
	for _, maxTrees := range []int{1, 2, 4, 8, 0} {
		label := fmt.Sprint(maxTrees)
		if maxTrees == 0 {
			label = "unlimited"
		}
		res, err := ablMergeRun(cfg.Seed, maxTrees, nAdvs, nSubs, nEvents)
		if err != nil {
			return nil, err
		}
		table.AddRow(label, res.trees, res.merges, res.flowOps, res.installed, res.meanDelay)
	}
	return []*metrics.Table{table}, nil
}

type ablMergeResult struct {
	trees     int
	merges    uint64
	flowOps   uint64
	installed int
	meanDelay time.Duration
}

func ablMergeRun(seed int64, maxTrees, nAdvs, nSubs, nEvents int) (ablMergeResult, error) {
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		return ablMergeResult{}, err
	}
	eng := sim.NewEngine()
	dp := netem.New(g, eng)
	opts := []core.Option{core.WithHostAddr(netem.HostAddr)}
	if maxTrees > 0 {
		opts = append(opts, core.WithMaxTrees(maxTrees))
	}
	ctl, err := core.NewController(g, dp, opts...)
	if err != nil {
		return ablMergeResult{}, err
	}
	sch, err := space.UniformSchema(fig7bDims)
	if err != nil {
		return ablMergeResult{}, err
	}
	gen, err := workload.New(sch, workload.Zipfian, seed)
	if err != nil {
		return ablMergeResult{}, err
	}
	hosts := g.Hosts()

	type pubInfo struct {
		host topo.NodeID
		rect [][2]uint32 // unused; rect kept via decomposed set only
	}
	_ = pubInfo{}
	pubHosts := make([]topo.NodeID, 0, nAdvs)
	pubRects := make([][]uint32, 0, nAdvs) // sample point inside each adv
	for i := 0; i < nAdvs; i++ {
		rect := gen.SubscriptionRect()
		set, err := sch.DecomposeRectLimited(rect, fig7bMaxDzLen, fig7bMaxSubspaces)
		if err != nil {
			return ablMergeResult{}, err
		}
		host := hosts[i%len(hosts)]
		if _, err := ctl.Advertise(fmt.Sprintf("p%d", i), host, set); err != nil {
			return ablMergeResult{}, err
		}
		pubHosts = append(pubHosts, host)
		sample := make([]uint32, sch.Dims())
		for d := range sample {
			sample[d] = rect[d].Lo + (rect[d].Hi-rect[d].Lo)/2
		}
		pubRects = append(pubRects, sample)
	}
	for i := 0; i < nSubs; i++ {
		set, err := sch.DecomposeRectLimited(gen.SubscriptionRect(), fig7bMaxDzLen, fig7bMaxSubspaces)
		if err != nil {
			return ablMergeResult{}, err
		}
		if _, err := ctl.Subscribe(fmt.Sprintf("s%d", i), hosts[(i*5+1)%len(hosts)], set); err != nil {
			return ablMergeResult{}, err
		}
	}

	lat := &metrics.Latency{}
	for _, h := range hosts {
		h := h
		if err := dp.ConfigureHost(h, netem.HostConfig{}, func(d netem.Delivery) {
			lat.Add(d.At - d.Packet.SentAt)
		}); err != nil {
			return ablMergeResult{}, err
		}
	}
	maxLen := sch.Geometry().MaxLen()
	for i := 0; i < nEvents; i++ {
		pi := i % nAdvs
		// Publish near the advertisement's centre so the event lies inside
		// the advertised region.
		ev := space.Event{Values: pubRects[pi]}
		expr, err := sch.Encode(ev, maxLen)
		if err != nil {
			return ablMergeResult{}, err
		}
		at := time.Duration(i) * 100 * time.Microsecond
		host := pubHosts[pi]
		if err := dp.PublishAt(at, host, expr, ev, netem.DefaultPacketSize); err != nil {
			return ablMergeResult{}, err
		}
	}
	eng.Run()

	st := ctl.Stats()
	return ablMergeResult{
		trees:     len(ctl.Trees()),
		merges:    st.TreesMerged,
		flowOps:   st.FlowOps(),
		installed: ctl.InstalledFlowCount(),
		meanDelay: lat.Mean(),
	}, nil
}
