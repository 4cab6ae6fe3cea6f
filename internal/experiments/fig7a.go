package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"pleroma/internal/dz"
	"pleroma/internal/metrics"
	"pleroma/internal/netem"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
)

// RunFig7aDelayVsFlows reproduces Figure 7(a): the average end-to-end
// delay between a publisher and a subscriber connected via the longest
// path of the testbed fat-tree, with the flow tables of every switch on
// the path filled with 5k–80k entries. Events are drawn to match random
// flow entries (uniformly or zipfian-popularly); the TCAM model serves
// lookups in constant time, so the delay stays flat — the paper's point.
func RunFig7aDelayVsFlows(cfg Config) ([]*metrics.Table, error) {
	flowCounts := pickInts(cfg,
		[]int{1000, 5000, 10000},
		[]int{5000, 10000, 20000, 40000, 80000})
	events := pick(cfg, 300, 10000)

	table := &metrics.Table{
		Title: "Figure 7(a): end-to-end delay vs. flow-table entries (longest path)",
		Columns: []string{"flows", "uniform-mean", "uniform-p99",
			"zipfian-mean", "zipfian-p99", "software-switch-mean"},
	}
	for _, n := range flowCounts {
		uni, err := fig7aRun(cfg.Seed, n, events, false, tcamSwitch)
		if err != nil {
			return nil, err
		}
		zipf, err := fig7aRun(cfg.Seed+1, n, events, true, tcamSwitch)
		if err != nil {
			return nil, err
		}
		// The contrast series the paper's footnote alludes to: a software
		// switch whose lookup cost grows with table occupancy.
		soft, err := fig7aRun(cfg.Seed, n, events, false, softwareSwitch)
		if err != nil {
			return nil, err
		}
		table.AddRow(n, uni.Mean(), uni.Percentile(0.99),
			zipf.Mean(), zipf.Percentile(0.99), soft.Mean())
	}
	return []*metrics.Table{table}, nil
}

// Switch models for the fig7a contrast.
var (
	tcamSwitch     = netem.DefaultSwitchConfig
	softwareSwitch = netem.SwitchConfig{
		LookupDelay:    10 * time.Microsecond,
		PerFlowPenalty: 2 * time.Microsecond, // per 1000 installed flows
	}
)

// fig7aRun measures delay over one table size for one event distribution
// and switch model.
func fig7aRun(seed int64, flowCount, events int, zipfian bool, swCfg netem.SwitchConfig) (*metrics.Latency, error) {
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	dp := netem.New(g, eng)
	dp.SetAllSwitchConfigs(swCfg)
	hosts := g.Hosts()
	pub, sub := hosts[0], hosts[7] // opposite pods: the longest path

	path, err := g.ShortestPath(pub, sub)
	if err != nil {
		return nil, err
	}
	hops, err := g.RouteHops(path)
	if err != nil {
		return nil, err
	}

	// Fill every path switch with flowCount entries sharing the same match
	// expressions (17 dz bits give 128k distinct subspaces) but switch-
	// local out-ports towards the next hop.
	const exprBits = 17
	if flowCount > 1<<exprBits {
		return nil, fmt.Errorf("fig7a: flow count %d exceeds %d expressions", flowCount, 1<<exprBits)
	}
	exprs := make([]dz.Expr, flowCount)
	for i := range exprs {
		exprs[i] = fixedWidthExpr(uint64(i), exprBits)
	}
	for hi, hop := range hops {
		tab, err := dp.Table(hop.Switch)
		if err != nil {
			return nil, err
		}
		terminal := hi == len(hops)-1
		for _, e := range exprs {
			action := openflow.Action{OutPort: hop.OutPort}
			if terminal {
				action.SetDest = netem.HostAddr(sub)
			}
			f, err := openflow.NewFlow(e, e.Len(), action)
			if err != nil {
				return nil, err
			}
			tab.Add(f)
		}
	}

	lat := &metrics.Latency{}
	if err := dp.ConfigureHost(sub, netem.HostConfig{}, func(d netem.Delivery) {
		lat.Add(d.At - d.Packet.SentAt)
	}); err != nil {
		return nil, err
	}

	r := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if zipfian {
		zipf = rand.NewZipf(r, 1.3, 1, uint64(flowCount-1))
	}
	// Constant publish rate: 1000 events/s of simulated time.
	interval := time.Millisecond
	for i := 0; i < events; i++ {
		idx := uint64(r.Intn(flowCount))
		if zipf != nil {
			idx = zipf.Uint64()
		}
		// The event carries a maximum-length dz refined below the flow's
		// 17 bits.
		expr := exprs[idx] + fixedWidthExpr(uint64(r.Intn(1<<12)), 12)
		at := time.Duration(i) * interval
		if err := dp.PublishAt(at, pub, expr, space.Event{}, netem.DefaultPacketSize); err != nil {
			return nil, err
		}
	}
	eng.Run()
	if lat.Count() != events {
		return nil, fmt.Errorf("fig7a: delivered %d of %d events", lat.Count(), events)
	}
	return lat, nil
}

// fixedWidthExpr renders v as a dz-expression of exactly width bits.
func fixedWidthExpr(v uint64, width int) dz.Expr {
	buf := make([]byte, width)
	for i := width - 1; i >= 0; i-- {
		if v&1 != 0 {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
		v >>= 1
	}
	return dz.Expr(buf)
}
