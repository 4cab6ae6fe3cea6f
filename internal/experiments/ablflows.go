package experiments

import (
	"fmt"
	"time"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/metrics"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
	"pleroma/internal/workload"
)

// RunAblationFlowBudget quantifies requirement 3 of the paper's
// introduction: TCAM space is scarce (40k–180k entries per switch), so the
// controller must bound the flows it installs. The two knobs are the dz
// length L_dz and the per-subscription subspace budget; the sweep reports
// the resulting flow-table footprint against the false-positive rate they
// buy — the bandwidth-efficiency/TCAM trade-off.
func RunAblationFlowBudget(cfg Config) ([]*metrics.Table, error) {
	nSubs := pick(cfg, 200, 1000)
	nEvents := pick(cfg, 400, 3000)

	type knob struct {
		ldz    int
		budget int
	}
	knobs := []knob{
		{8, 4}, {12, 8}, {16, 16}, {20, 32}, {24, 64},
	}

	table := &metrics.Table{
		Title: "Ablation: flow-table footprint vs. filtering precision (requirement 3)",
		Columns: []string{"L_dz", "subspace-budget", "total-flows",
			"max-flows/switch", "fpr-%"},
	}
	for _, k := range knobs {
		total, maxPer, fpr, err := ablFlowsRun(cfg.Seed, k.ldz, k.budget, nSubs, nEvents)
		if err != nil {
			return nil, err
		}
		table.AddRow(k.ldz, k.budget, total, maxPer, fpr)
	}
	return []*metrics.Table{table}, nil
}

func ablFlowsRun(seed int64, ldz, budget, nSubs, nEvents int) (totalFlows, maxPerSwitch int, fpr float64, err error) {
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		return 0, 0, 0, err
	}
	eng := sim.NewEngine()
	dp := netem.New(g, eng)
	ctl, err := core.NewController(g, dp, core.WithHostAddr(netem.HostAddr))
	if err != nil {
		return 0, 0, 0, err
	}
	sch, err := space.UniformSchema(fig7bDims)
	if err != nil {
		return 0, 0, 0, err
	}
	gen, err := workload.New(sch, workload.Zipfian, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	hosts := g.Hosts()
	pub := hosts[0]
	subsHosts := hosts[1:]

	whole, err := sch.DecomposeLimited(space.NewFilter(), ldz, budget)
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := ctl.Advertise("pub", pub, whole); err != nil {
		return 0, 0, 0, err
	}
	hostRects := make(map[topo.NodeID][]dz.Rect)
	for i := 0; i < nSubs; i++ {
		rect := gen.SubscriptionRect()
		set, err := sch.DecomposeRectLimited(rect, ldz, budget)
		if err != nil {
			return 0, 0, 0, err
		}
		host := subsHosts[i%len(subsHosts)]
		if _, err := ctl.Subscribe(fmt.Sprintf("s%d", i), host, set); err != nil {
			return 0, 0, 0, err
		}
		hostRects[host] = append(hostRects[host], rect)
	}

	var fp metrics.FalsePositives
	for _, h := range subsHosts {
		h := h
		if err := dp.ConfigureHost(h, netem.HostConfig{}, func(d netem.Delivery) {
			matched := false
			for _, r := range hostRects[h] {
				if dz.RectContainsPoint(r, d.Packet.Event.Values) {
					matched = true
					break
				}
			}
			fp.Record(matched)
		}); err != nil {
			return 0, 0, 0, err
		}
	}
	for i, ev := range gen.Events(nEvents) {
		expr, encErr := sch.Encode(ev, ldz)
		if encErr != nil {
			return 0, 0, 0, encErr
		}
		at := time.Duration(i) * 50 * time.Microsecond
		if err := dp.PublishAt(at, pub, expr, ev, netem.DefaultPacketSize); err != nil {
			return 0, 0, 0, err
		}
	}
	eng.Run()

	totalFlows = ctl.InstalledFlowCount()
	for _, sw := range g.Switches() {
		if n := len(ctl.InstalledFlowsOn(sw)); n > maxPerSwitch {
			maxPerSwitch = n
		}
	}
	return totalFlows, maxPerSwitch, fp.Rate(), nil
}
