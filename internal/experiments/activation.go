package experiments

import (
	"fmt"
	"sort"
	"time"

	"pleroma/internal/dz"
	"pleroma/internal/interdomain"
	"pleroma/internal/metrics"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
	"pleroma/internal/wire"
	"pleroma/internal/workload"
)

// fig7fProcessingDelay is the controller processing model used for the
// activation experiment (aligned with the Figure 7f cost model's base).
const activationProcessingDelay = 3 * time.Millisecond

// RunExtActivationLatency measures requirement 1 of the paper's
// introduction end to end: the time from a subscriber *sending* its
// subscription (as an in-band IP_vir request over the data plane) until
// the first matching event reaches it, while a publisher streams events
// continuously. The latency combines the punt path, controller
// processing, and flow installation — the "low latency until subscribers
// can react" that motivates SDN-based pub/sub over broker overlays.
func RunExtActivationLatency(cfg Config) ([]*metrics.Table, error) {
	deployed := pickInts(cfg, []int{50, 200}, []int{100, 1000, 5000})
	trials := pick(cfg, 10, 40)

	table := &metrics.Table{
		Title:   "Extension: subscription activation latency (requirement 1)",
		Columns: []string{"deployed", "activation-mean", "activation-p99"},
	}
	var last *metrics.Latency
	for _, n := range deployed {
		lat, err := activationRun(cfg.Seed, n, trials)
		if err != nil {
			return nil, err
		}
		table.AddRow(n, lat.Mean(), lat.Percentile(0.99))
		last = lat
	}
	// Distribution of the heaviest configuration: bucket i counts samples
	// below bounds[i] and not below bounds[i-1]; the last row is the
	// overflow.
	bounds := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 16 * time.Millisecond}
	counts := make([]int, len(bounds)+1)
	for i := 0; i < last.Count(); i++ {
		d := last.Percentile(float64(i+1) / float64(last.Count()))
		counts[sort.Search(len(bounds), func(j int) bool { return d < bounds[j] })]++
	}
	dist := &metrics.Table{
		Title:   "Activation latency distribution (largest deployment)",
		Columns: []string{"bucket", "count"},
	}
	for i, n := range counts {
		label := "+inf"
		if i < len(bounds) {
			label = "<" + bounds[i].String()
		}
		dist.AddRow(label, n)
	}
	return []*metrics.Table{table, dist}, nil
}

func activationRun(seed int64, deployed, trials int) (*metrics.Latency, error) {
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	dp := netem.New(g, eng)
	fab, err := interdomain.NewFabric(g, dp)
	if err != nil {
		return nil, err
	}
	fab.EnableInBandSignalling(activationProcessingDelay)
	sch, err := space.UniformSchema(fig7bDims)
	if err != nil {
		return nil, err
	}
	gen, err := workload.New(sch, workload.Zipfian, seed)
	if err != nil {
		return nil, err
	}
	hosts := g.Hosts()
	pub := hosts[0]

	whole, err := sch.DecomposeLimited(space.NewFilter(), fig7bMaxDzLen, fig7bMaxSubspaces)
	if err != nil {
		return nil, err
	}
	if err := fab.SendSignal(interdomain.SignalRequest{
		Op: wire.OpAdvertise, ID: "pub", Host: pub, Set: whole,
	}); err != nil {
		return nil, err
	}
	eng.Run()
	for i := 0; i < deployed; i++ {
		set, err := sch.DecomposeRectLimited(gen.SubscriptionRect(), fig7bMaxDzLen, fig7bMaxSubspaces)
		if err != nil {
			return nil, err
		}
		if err := fab.SendSignal(interdomain.SignalRequest{
			Op: wire.OpSubscribe, ID: fmt.Sprintf("pre%d", i),
			Host: hosts[1+i%(len(hosts)-1)], Set: set,
		}); err != nil {
			return nil, err
		}
	}
	eng.Run()

	// A steady event stream on a dedicated probe subspace.
	probeExpr := dz.Expr("1111")
	probeKey, _ := dz.KeyOf(probeExpr)
	const eventGap = 100 * time.Microsecond
	lat := &metrics.Latency{}

	for trial := 0; trial < trials; trial++ {
		probeHost := hosts[1+trial%(len(hosts)-1)]
		probeID := fmt.Sprintf("probe%d", trial)
		var firstDelivery time.Duration
		if err := dp.ConfigureHost(probeHost, netem.HostConfig{}, func(d netem.Delivery) {
			if firstDelivery == 0 && d.Packet.Key.Prefix(probeKey.Len()) == probeKey {
				firstDelivery = d.At
			}
		}); err != nil {
			return nil, err
		}
		sentAt := eng.Now()
		if err := fab.SendSignal(interdomain.SignalRequest{
			Op: wire.OpSubscribe, ID: probeID,
			Host: probeHost, Set: dz.NewSet(probeExpr),
		}); err != nil {
			return nil, err
		}
		// Events keep flowing during activation.
		for i := 0; i < 200; i++ {
			at := sentAt + time.Duration(i)*eventGap
			if err := dp.PublishAt(at, pub, "111111111111", space.Event{}, netem.DefaultPacketSize); err != nil {
				return nil, err
			}
		}
		eng.Run()
		if firstDelivery == 0 {
			return nil, fmt.Errorf("activation: probe %d never received", trial)
		}
		lat.Add(firstDelivery - sentAt)
		// Tear the probe down for the next trial.
		if err := fab.SendSignal(interdomain.SignalRequest{
			Op: wire.OpUnsubscribe, ID: probeID, Host: probeHost,
		}); err != nil {
			return nil, err
		}
		eng.Run()
		if err := dp.ConfigureHost(probeHost, netem.HostConfig{}, nil); err != nil {
			return nil, err
		}
	}
	return lat, nil
}
