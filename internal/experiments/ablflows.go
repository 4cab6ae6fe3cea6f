package experiments

import (
	"time"

	"pleroma"
	"pleroma/internal/metrics"
	"pleroma/internal/obs"
	"pleroma/internal/space"
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

// ablFlowsRun deploys the Figure 7(b) fan-out under one L_dz and
// subspace budget and reads the emulated switches' flow tables and the
// share of deliveries that were false positives.
func ablFlowsRun(seed int64, ldz, budget, nSubs, nEvents int) (totalFlows, maxPerSwitch int, fpr float64, err error) {
	sch, err := space.UniformSchema(fig7bDims)
	if err != nil {
		return 0, 0, 0, err
	}
	gen, err := workload.New(sch, workload.Zipfian, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	sys, err := newSystem(sch, pleroma.WithMaxDzLen(ldz), pleroma.WithMaxSubspaces(budget), pleroma.WithObservability(0))
	if err != nil {
		return 0, 0, 0, err
	}
	defer sys.Close()
	if err := fanout(sys, gen.SubscriptionRects(nSubs), gen.Events(nEvents), 50*time.Microsecond, nil); err != nil {
		return 0, 0, 0, err
	}

	for _, fam := range sys.Metrics().Families {
		if fam.Name != obs.MFlowTableOccupancy {
			continue
		}
		for _, sw := range fam.Samples {
			n := int(sw.Value)
			totalFlows += n
			maxPerSwitch = max(maxPerSwitch, n)
		}
	}
	return totalFlows, maxPerSwitch, sys.Stats().FPRPercent(), nil
}
