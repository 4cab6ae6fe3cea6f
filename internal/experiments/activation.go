package experiments

import (
	"fmt"
	"sort"
	"time"

	"pleroma"
	"pleroma/internal/metrics"
	"pleroma/internal/space"
	"pleroma/internal/workload"
)

// activationProcessingDelay is the controller processing model used for the
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

// activationRun deploys `deployed` subscriptions in band and then times
// trials probe subscriptions, one at a time, from the subscribe request
// until the first event of a steady stream reaches the probe.
func activationRun(seed int64, deployed, trials int) (*metrics.Latency, error) {
	sch, err := space.UniformSchema(fig7bDims)
	if err != nil {
		return nil, err
	}
	gen, err := workload.New(sch, workload.Zipfian, seed)
	if err != nil {
		return nil, err
	}
	sys, err := newSystem(sch, pleroma.WithInBandSignalling(activationProcessingDelay))
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	hosts := sys.Hosts()

	pub, err := advertise(sys, "pub", hosts[0], pleroma.NewFilter())
	if err != nil {
		return nil, err
	}
	sys.Run()
	for i := 0; i < deployed; i++ {
		f := filterOf(sch, gen.SubscriptionRect())
		if err := sys.Subscribe(fmt.Sprintf("pre%d", i), hosts[1+i%(len(hosts)-1)], f, nil); err != nil {
			return nil, err
		}
	}
	sys.Run()

	// A steady event stream into a dedicated probe subspace: the top
	// corner of the space, inside dz 1111.
	probe := filterOf(sch, sch.Geometry().Bounds("1111"))
	top := make([]uint32, sch.Dims())
	for d := range top {
		top[d] = sch.DomainMax()
	}
	const eventGap = 100 * time.Microsecond
	lat := &metrics.Latency{}

	for trial := 0; trial < trials; trial++ {
		probeHost := hosts[1+trial%(len(hosts)-1)]
		probeID := fmt.Sprintf("probe%d", trial)
		var firstDelivery time.Duration
		sentAt := sys.Now()
		if err := sys.Subscribe(probeID, probeHost, probe, func(d pleroma.Delivery) {
			if firstDelivery == 0 {
				firstDelivery = d.At
			}
		}); err != nil {
			return nil, err
		}
		// Events keep flowing during activation.
		for i := 0; i < 200; i++ {
			if err := pub.Publish(top...); err != nil {
				return nil, err
			}
			sys.RunFor(eventGap)
		}
		sys.Run()
		if firstDelivery == 0 {
			return nil, fmt.Errorf("activation: probe %d never received", trial)
		}
		lat.Add(firstDelivery - sentAt)
		// Tear the probe down for the next trial.
		if err := sys.Unsubscribe(probeID); err != nil {
			return nil, err
		}
		sys.Run()
	}
	return lat, nil
}
