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

// fig7bDims is the schema width used by the delay experiments.
const fig7bDims = 3

// fig7bMaxDzLen bounds the dz length embedded in flow matches.
const fig7bMaxDzLen = 24

// fig7bMaxSubspaces caps the per-subscription DZ set size.
const fig7bMaxSubspaces = 16

// RunFig7bDelayVsSubscriptions reproduces Figure 7(b): average end-to-end
// delay from one publisher to all interested subscribers as the number of
// deployed subscriptions grows, for the uniform and zipfian workloads.
// The delay stays nearly constant: forwarding work per event is
// independent of the subscription count.
func RunFig7bDelayVsSubscriptions(cfg Config) ([]*metrics.Table, error) {
	subCounts := pickInts(cfg,
		[]int{100, 400, 1000},
		[]int{1000, 2000, 4000, 8000, 16000})
	events := pick(cfg, 300, 10000)

	table := &metrics.Table{
		Title:   "Figure 7(b): end-to-end delay vs. number of subscriptions",
		Columns: []string{"subscriptions", "uniform-mean", "zipfian-mean", "uniform-deliveries", "zipfian-deliveries"},
	}
	for _, n := range subCounts {
		uni, uniDel, err := fig7bRun(cfg.Seed, n, events, workload.Uniform)
		if err != nil {
			return nil, err
		}
		zipf, zipfDel, err := fig7bRun(cfg.Seed+1, n, events, workload.Zipfian)
		if err != nil {
			return nil, err
		}
		table.AddRow(n, uni.Mean(), zipf.Mean(), uniDel, zipfDel)
	}
	return []*metrics.Table{table}, nil
}

func fig7bRun(seed int64, nSubs, nEvents int, model workload.Model) (*metrics.Latency, uint64, error) {
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		return nil, 0, err
	}
	eng := sim.NewEngine()
	dp := netem.New(g, eng)
	ctl, err := core.NewController(g, dp, core.WithHostAddr(netem.HostAddr))
	if err != nil {
		return nil, 0, err
	}
	sch, err := space.UniformSchema(fig7bDims)
	if err != nil {
		return nil, 0, err
	}
	gen, err := workload.New(sch, model, seed)
	if err != nil {
		return nil, 0, err
	}

	hosts := g.Hosts()
	pub := hosts[0]
	subs := hosts[1:]

	// The publisher advertises the whole space.
	whole, err := sch.DecomposeLimited(space.NewFilter(), fig7bMaxDzLen, fig7bMaxSubspaces)
	if err != nil {
		return nil, 0, err
	}
	if _, err := ctl.Advertise("pub", pub, whole); err != nil {
		return nil, 0, err
	}

	// Subscriptions divided among the end hosts (round-robin, as the
	// random division of the paper).
	for i, rect := range gen.SubscriptionRects(nSubs) {
		set, err := sch.DecomposeRectLimited(rect, fig7bMaxDzLen, fig7bMaxSubspaces)
		if err != nil {
			return nil, 0, err
		}
		host := subs[i%len(subs)]
		if _, err := ctl.Subscribe(fmt.Sprintf("s%d", i), host, set); err != nil {
			return nil, 0, err
		}
	}

	lat := &metrics.Latency{}
	var deliveries uint64
	for _, h := range subs {
		if err := dp.ConfigureHost(h, netem.HostConfig{}, func(d netem.Delivery) {
			deliveries++
			lat.Add(d.At - d.Packet.SentAt)
		}); err != nil {
			return nil, 0, err
		}
	}

	interval := time.Millisecond
	maxLen := sch.Geometry().MaxLen()
	for i, ev := range gen.Events(nEvents) {
		expr, err := sch.Encode(ev, maxLen)
		if err != nil {
			return nil, 0, err
		}
		at := time.Duration(i) * interval
		if err := dp.PublishAt(at, pub, expr, ev, netem.DefaultPacketSize); err != nil {
			return nil, 0, err
		}
	}
	eng.Run()
	return lat, deliveries, nil
}
