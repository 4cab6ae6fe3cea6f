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
func benchController(b testing.TB, deployed int) (*core.Controller, *space.Schema, *workload.Generator, []topo.NodeID) {
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

// subscribeUnsubscribeCycle returns one subscribe + unsubscribe cycle at 500
// deployed: a fresh subscription decomposed, installed and removed.
func subscribeUnsubscribeCycle(tb testing.TB) func() {
	ctl, sch, gen, hosts := benchController(tb, 500)
	i := 0
	return func() {
		id := fmt.Sprintf("c%d", i)
		set, err := sch.DecomposeRectLimited(gen.SubscriptionRect(), 24, 16)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := ctl.Subscribe(id, hosts[1+i%7], set); err != nil {
			tb.Fatal(err)
		}
		if _, err := ctl.Unsubscribe(id); err != nil {
			tb.Fatal(err)
		}
		i++
	}
}

func BenchmarkSubscribeUnsubscribeCycle(b *testing.B) {
	cycle := subscribeUnsubscribeCycle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// TestSubscribeUnsubscribeCycleAllocs pins the allocations of one cycle,
// the subscription's decomposition and id included: what is left is the
// state the subscription keeps while it lives — its record, branches,
// contributions and flows. Change sets, tree ids and branch expressions are
// controller scratch or sized once, so none of them counts per member.
func TestSubscribeUnsubscribeCycleAllocs(t *testing.T) {
	const ceiling = 11 // measured 9; 23 under the old ceiling of 25, 46 while every subscription made its own change sets and grew its paths per member
	cycle := subscribeUnsubscribeCycle(t)
	for range 50 {
		cycle()
	}
	perCycle := testing.AllocsPerRun(300, cycle)
	t.Logf("%.1f allocations per subscribe+unsubscribe cycle at 500 deployed", perCycle)
	if perCycle > ceiling {
		t.Errorf("%.1f allocations per subscribe+unsubscribe cycle, ceiling %d", perCycle, ceiling)
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
