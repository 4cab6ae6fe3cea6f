package experiments

import (
	"fmt"
	"time"

	"pleroma"
	"pleroma/internal/dz"
	"pleroma/internal/metrics"
	"pleroma/internal/space"
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
// independent of the subscription count. A delivery is one (event,
// interested subscription) pair; false positives are not counted.
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
		uni, err := fig7bRun(cfg.Seed, n, events, workload.Uniform)
		if err != nil {
			return nil, err
		}
		zipf, err := fig7bRun(cfg.Seed+1, n, events, workload.Zipfian)
		if err != nil {
			return nil, err
		}
		table.AddRow(n, uni.mean(), zipf.mean(), uni.interested, zipf.interested)
	}
	return []*metrics.Table{table}, nil
}

// fig7bDeliveries sums the deliveries to interested subscriptions: those
// whose rectangle holds the event. A figure of 16k subscriptions makes
// millions, so only their count and total delay are kept.
type fig7bDeliveries struct {
	interested uint64
	delay      time.Duration
}

func (r fig7bDeliveries) mean() time.Duration {
	if r.interested == 0 {
		return 0
	}
	return r.delay / time.Duration(r.interested)
}

// fig7bRun deploys nSubs subscriptions and publishes nEvents events, 1 ms
// apart, drawn from one generator of the model.
func fig7bRun(seed int64, nSubs, nEvents int, model workload.Model) (fig7bDeliveries, error) {
	var r fig7bDeliveries
	sch, err := space.UniformSchema(fig7bDims)
	if err != nil {
		return r, err
	}
	gen, err := workload.New(sch, model, seed)
	if err != nil {
		return r, err
	}
	sys, err := newSystem(sch)
	if err != nil {
		return r, err
	}
	defer sys.Close()
	err = fanout(sys, gen.SubscriptionRects(nSubs), gen.Events(nEvents), time.Millisecond,
		func(d pleroma.Delivery) {
			if !d.FalsePositive {
				r.interested++
				r.delay += d.Latency
			}
		})
	return r, err
}

// fanout runs the deployment of Figure 7(b) and of the broker and
// flow-budget ablations on sys: one publisher on the first host advertises
// the whole space, subscription i takes rects[i] on host 1 + i mod
// (hosts - 1) and hands every delivery to deliver, and the events are
// published interval apart.
func fanout(sys *pleroma.System, rects []dz.Rect, events []space.Event, interval time.Duration, deliver func(pleroma.Delivery)) error {
	hosts := sys.Hosts()
	pub, err := advertise(sys, "pub", hosts[0], pleroma.NewFilter())
	if err != nil {
		return err
	}
	for i, rect := range rects {
		host := hosts[1+i%(len(hosts)-1)]
		if err := sys.Subscribe(fmt.Sprintf("s%d", i), host, filterOf(sys.Schema(), rect), deliver); err != nil {
			return err
		}
	}
	return publishEvery(sys, pub, events, interval)
}
