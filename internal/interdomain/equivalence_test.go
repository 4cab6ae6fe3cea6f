package interdomain

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
)

// TestPropertyPartitioningPreservesDelivery: splitting the network into
// partitions is a control-plane optimisation — it must not change WHAT is
// delivered WHERE. For random workloads, the delivery sets of a
// single-controller deployment and a 4-partition deployment on the same
// ring must be identical.
func TestPropertyPartitioningPreservesDelivery(t *testing.T) {
	run := func(seed int64, partitions int) (map[string]int, bool) {
		g, err := topo.Ring(12, topo.DefaultLinkParams)
		if err != nil {
			return nil, false
		}
		if err := topo.PartitionRing(g, partitions); err != nil {
			return nil, false
		}
		eng := sim.NewEngine()
		dp := netem.New(g, eng)
		fab, err := NewFabric(g, dp)
		if err != nil {
			return nil, false
		}
		hosts := g.Hosts()
		recv := make(map[string]int)
		for _, h := range hosts {
			h := h
			if err := dp.ConfigureHost(h, netem.HostConfig{}, func(d netem.Delivery) {
				recv[fmt.Sprintf("%d|%s", h, d.Packet.Key.Expr())]++
			}); err != nil {
				return nil, false
			}
		}

		r := rand.New(rand.NewSource(seed))
		type op struct {
			id   string
			host topo.NodeID
			set  dz.Set
		}
		nAdv := 1 + r.Intn(3)
		nSub := 2 + r.Intn(6)
		var pubs []op
		for i := 0; i < nAdv; i++ {
			o := op{
				id:   fmt.Sprintf("p%d", i),
				host: hosts[r.Intn(len(hosts))],
				set:  randomSetFor(r),
			}
			pubs = append(pubs, o)
			if err := fab.Advertise(o.id, o.host, o.set); err != nil {
				return nil, false
			}
		}
		for i := 0; i < nSub; i++ {
			if err := fab.Subscribe(fmt.Sprintf("s%d", i),
				hosts[r.Intn(len(hosts))], randomSetFor(r)); err != nil {
				return nil, false
			}
		}
		// Publish events from each publisher within its advertisement.
		for _, p := range pubs {
			for j := 0; j < 10; j++ {
				base := p.set[r.Intn(len(p.set))]
				expr := base
				for expr.Len() < 10 {
					expr = expr.Child(byte(r.Intn(2)))
				}
				if err := dp.Publish(p.host, expr, space.Event{}, 64); err != nil {
					return nil, false
				}
			}
		}
		eng.Run()
		return recv, true
	}

	f := func(seed int64) bool {
		single, ok := run(seed, 1)
		if !ok {
			return false
		}
		multi, ok := run(seed, 4)
		if !ok {
			return false
		}
		if len(single) != len(multi) {
			return false
		}
		for k, v := range single {
			if multi[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func randomSetFor(r *rand.Rand) dz.Set {
	n := 1 + r.Intn(2)
	exprs := make([]dz.Expr, n)
	for i := range exprs {
		l := 1 + r.Intn(4)
		buf := make([]byte, l)
		for j := range buf {
			buf[j] = byte('0' + r.Intn(2))
		}
		exprs[i] = dz.Expr(buf)
	}
	return dz.NewSet(exprs...)
}
