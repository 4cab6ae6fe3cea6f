package experiments

import (
	"time"

	"pleroma"
	"pleroma/internal/dz"
	"pleroma/internal/space"
	"pleroma/internal/workload"
)

// The figures that build a deployment run on pleroma.System, the code a
// user calls: publish admission, host demux and its false-positive flag,
// the journal and the observability counters are on their path. The
// helpers below are what those runners share.

// newSystem builds a figure's deployment: the testbed fat-tree, flow
// matches of at most fig7bMaxDzLen dz bits and at most fig7bMaxSubspaces
// subspaces per registration, unless opts say otherwise. The bounds are
// the figures' parameters, the ones the runners still on the internals
// decompose with, so they are set here rather than left to NewSystem's
// defaults.
func newSystem(sch *pleroma.Schema, opts ...pleroma.Option) (*pleroma.System, error) {
	return pleroma.NewSystem(sch, append([]pleroma.Option{
		pleroma.WithMaxDzLen(fig7bMaxDzLen),
		pleroma.WithMaxSubspaces(fig7bMaxSubspaces),
	}, opts...)...)
}

// filterOf is a workload rectangle as a filter: one range per attribute.
func filterOf(sch *pleroma.Schema, r dz.Rect) pleroma.Filter {
	f := pleroma.NewFilter()
	for d, iv := range r {
		f = f.Range(sch.Attribute(d).Name, iv.Lo, iv.Hi)
	}
	return f
}

// advertise registers publisher id on host and advertises f.
func advertise(sys *pleroma.System, id string, host pleroma.HostID, f pleroma.Filter) (*pleroma.Publisher, error) {
	p, err := sys.NewPublisher(id, host)
	if err != nil {
		return nil, err
	}
	return p, p.Advertise(f)
}

// publishEvery publishes the events from p one at a time, interval apart
// from now on, and drains the network.
func publishEvery(sys *pleroma.System, p *pleroma.Publisher, events []space.Event, interval time.Duration) error {
	for _, ev := range events {
		if err := p.Publish(ev.Values...); err != nil {
			return err
		}
		sys.RunFor(interval)
	}
	sys.Run()
	return nil
}

// churn drives one seeded churn stream (workload.RunChurn) against sys.
// Each id lives on a host picked by a hash of the id, and after, when not
// nil, runs after every mutation that succeeded.
func churn(sys *pleroma.System, seed int64, ops int, after func() error) (workload.ChurnStats, error) {
	sch := sys.Schema()
	hosts := sys.Hosts()
	hostFor := func(id string) pleroma.HostID {
		h := 0
		for _, ch := range id {
			h = h*31 + int(ch)
		}
		if h < 0 {
			h = -h
		}
		return hosts[h%len(hosts)]
	}
	done := func(err error) error {
		if err != nil || after == nil {
			return err
		}
		return after()
	}
	pubs := make(map[string]*pleroma.Publisher)
	return workload.RunChurn(sch, workload.ChurnConfig{Ops: ops, Seed: seed}, workload.ChurnOps{
		Advertise: func(id string, rect dz.Rect) error {
			p, err := advertise(sys, id, hostFor(id), filterOf(sch, rect))
			pubs[id] = p
			return done(err)
		},
		Unadvertise: func(id string) error {
			return done(pubs[id].Unadvertise())
		},
		Subscribe: func(id string, rect dz.Rect) error {
			return done(sys.Subscribe(id, hostFor(id), filterOf(sch, rect), nil))
		},
		Unsubscribe: func(id string) error {
			return done(sys.Unsubscribe(id))
		},
	})
}
