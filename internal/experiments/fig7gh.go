package experiments

import (
	"fmt"

	"pleroma"
	"pleroma/internal/metrics"
	"pleroma/internal/obs"
	"pleroma/internal/space"
	"pleroma/internal/workload"
)

// fig7gSubCounts are the subscription workloads of Figures 7(g) and 7(h).
var fig7gSubCounts = []int{100, 200, 400}

// RunFig7gControllerOverhead reproduces Figure 7(g): the average request
// load per controller, normalised to the single-controller case, as the
// 20-switch ring is split into 1–10 partitions. Partitioning spreads
// internal requests across controllers and covering-based forwarding
// keeps the external traffic sub-linear, so the normalised overhead
// drops — the more subscriptions, the bigger the benefit.
func RunFig7gControllerOverhead(cfg Config) ([]*metrics.Table, error) {
	controllers := pickInts(cfg, []int{1, 2, 4, 10}, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})

	table := &metrics.Table{
		Title:   "Figure 7(g): normalized avg controller overhead vs. number of controllers",
		Columns: []string{"controllers"},
	}
	for _, n := range fig7gSubCounts {
		table.Columns = append(table.Columns, itoa(n)+"-subs")
	}

	// Baselines: average load at 1 controller per subscription count.
	base := make(map[int]float64, len(fig7gSubCounts))
	for _, subs := range fig7gSubCounts {
		st, err := fig7ghRun(cfg.Seed, 1, subs)
		if err != nil {
			return nil, err
		}
		base[subs] = st.load
	}
	for _, nc := range controllers {
		cells := []any{nc}
		for _, subs := range fig7gSubCounts {
			st, err := fig7ghRun(cfg.Seed, nc, subs)
			if err != nil {
				return nil, err
			}
			norm := 0.0
			if base[subs] > 0 {
				norm = st.load / base[subs] * 100
			}
			cells = append(cells, norm)
		}
		table.AddRow(cells...)
	}
	return []*metrics.Table{table}, nil
}

// RunFig7hControlTraffic reproduces Figure 7(h): total control traffic
// (end-host requests plus controller-to-controller messages) versus the
// number of partitions. Partitioning adds inter-controller messages, but
// the relative increase shrinks for larger subscription workloads because
// covering-based forwarding suppresses more of them.
func RunFig7hControlTraffic(cfg Config) ([]*metrics.Table, error) {
	controllers := pickInts(cfg, []int{1, 2, 4, 10}, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})

	table := &metrics.Table{
		Title:   "Figure 7(h): total control traffic vs. number of controllers",
		Columns: []string{"controllers"},
	}
	for _, n := range fig7gSubCounts {
		table.Columns = append(table.Columns,
			itoa(n)+"-subs-total", itoa(n)+"-suppressed")
	}
	for _, nc := range controllers {
		cells := []any{nc}
		for _, subs := range fig7gSubCounts {
			st, err := fig7ghRun(cfg.Seed, nc, subs)
			if err != nil {
				return nil, err
			}
			cells = append(cells, st.traffic, st.suppressed)
		}
		table.AddRow(cells...)
	}
	return []*metrics.Table{table}, nil
}

// fig7ghCounts is the control plane's work in one fig7g/h deployment.
type fig7ghCounts struct {
	// load is the mean number of requests a controller handled: host
	// requests plus controller-to-controller messages, over controllers.
	load float64
	// traffic is every control message: host requests plus
	// controller-to-controller messages.
	traffic uint64
	// suppressed counts inter-partition forwardings covering made
	// unnecessary.
	suppressed uint64
}

// fig7ghRun deploys publishers and a uniform subscription workload on the
// 20-switch ring split into nControllers partitions and counts the
// control plane's work.
func fig7ghRun(seed int64, nControllers, nSubs int) (fig7ghCounts, error) {
	sch, err := space.UniformSchema(2)
	if err != nil {
		return fig7ghCounts{}, err
	}
	gen, err := workload.New(sch, workload.Uniform, seed)
	if err != nil {
		return fig7ghCounts{}, err
	}
	sys, err := newSystem(sch, pleroma.WithTopology(pleroma.TopologyRing20),
		pleroma.WithPartitions(nControllers), pleroma.WithObservability(0))
	if err != nil {
		return fig7ghCounts{}, err
	}
	defer sys.Close()
	hosts := sys.Hosts()

	// Four publishers spread around the ring advertise broad regions.
	const publishers = 4
	for i := 0; i < publishers; i++ {
		rect := gen.SubscriptionRect()
		// Broaden the advertisement so most subscriptions overlap it.
		for d := range rect {
			rect[d].Lo = rect[d].Lo / 2
			hi := rect[d].Hi + (sch.DomainMax()-rect[d].Hi)/2
			rect[d].Hi = hi
		}
		if _, err := advertise(sys, fmt.Sprintf("p%d", i), hosts[(i*len(hosts))/publishers], filterOf(sch, rect)); err != nil {
			return fig7ghCounts{}, err
		}
	}
	for i := 0; i < nSubs; i++ {
		f := filterOf(sch, gen.SubscriptionRect())
		host := hosts[int(gen.Event().Values[0])%len(hosts)]
		if err := sys.Subscribe(fmt.Sprintf("s%d", i), host, f, nil); err != nil {
			return fig7ghCounts{}, err
		}
	}
	// Every host request reaches one controller, and every
	// controller-to-controller message is sent by one and handled by one.
	st := sys.Stats()
	traffic := uint64(publishers+nSubs) + st.ControlMessages
	return fig7ghCounts{
		load:       float64(traffic) / float64(st.Partitions),
		traffic:    traffic,
		suppressed: uint64(sys.Metrics().Total(obs.MInterdomainSuppressed)),
	}, nil
}
