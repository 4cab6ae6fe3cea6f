package core_test

import (
	"fmt"
	"testing"

	"pleroma/internal/core"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
	"pleroma/internal/workload"
)

// benchController builds a controller with `deployed` zipfian
// subscriptions already installed.
func benchController(b *testing.B, deployed int) (*core.Controller, *space.Schema, *workload.Generator, []topo.NodeID) {
	b.Helper()
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		b.Fatal(err)
	}
	dp := netem.New(g, sim.NewEngine())
	ctl, err := core.NewController(g, dp, core.WithHostAddr(netem.HostAddr))
	if err != nil {
		b.Fatal(err)
	}
	sch, err := space.UniformSchema(3)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.New(sch, workload.Zipfian, 42)
	if err != nil {
		b.Fatal(err)
	}
	hosts := g.Hosts()
	whole, err := sch.DecomposeLimited(space.NewFilter(), 24, 16)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ctl.Advertise("pub", hosts[0], whole); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < deployed; i++ {
		set, err := sch.DecomposeRectLimited(gen.SubscriptionRect(), 24, 16)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctl.Subscribe(fmt.Sprintf("pre%d", i), hosts[1+i%7], set); err != nil {
			b.Fatal(err)
		}
	}
	return ctl, sch, gen, hosts
}

func benchSubscribe(b *testing.B, deployed int) {
	ctl, sch, gen, hosts := benchController(b, deployed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := sch.DecomposeRectLimited(gen.SubscriptionRect(), 24, 16)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctl.Subscribe(fmt.Sprintf("b%d", i), hosts[1+i%7], set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubscribeAt100Deployed(b *testing.B)  { benchSubscribe(b, 100) }
func BenchmarkSubscribeAt1000Deployed(b *testing.B) { benchSubscribe(b, 1000) }
func BenchmarkSubscribeAt5000Deployed(b *testing.B) { benchSubscribe(b, 5000) }

func BenchmarkSubscribeUnsubscribeCycle(b *testing.B) {
	ctl, sch, gen, hosts := benchController(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("c%d", i)
		set, err := sch.DecomposeRectLimited(gen.SubscriptionRect(), 24, 16)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctl.Subscribe(id, hosts[1+i%7], set); err != nil {
			b.Fatal(err)
		}
		if _, err := ctl.Unsubscribe(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdvertise(b *testing.B) {
	ctl, sch, gen, hosts := benchController(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("bp%d", i)
		set, err := sch.DecomposeRectLimited(gen.SubscriptionRect(), 24, 16)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctl.Advertise(id, hosts[i%8], set); err != nil {
			b.Fatal(err)
		}
		if _, err := ctl.Unadvertise(id); err != nil {
			b.Fatal(err)
		}
	}
}
