package pleroma

import (
	"errors"
	"testing"
	"time"

	"pleroma/internal/topo"
)

func newSys(t *testing.T, opts ...Option) *System {
	t.Helper()
	sch, err := NewSchema(
		Attribute{Name: "price", Bits: 10},
		Attribute{Name: "volume", Bits: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sch, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemQuickstartFlow(t *testing.T) {
	sys := newSys(t)
	hosts := sys.Hosts()
	if len(hosts) != 8 {
		t.Fatalf("hosts=%d", len(hosts))
	}

	pub, err := sys.NewPublisher("ticker", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}

	var got []Delivery
	if err := sys.Subscribe("cheap", hosts[7],
		NewFilter().Range("price", 0, 99),
		func(d Delivery) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}

	if err := pub.Publish(42, 1000); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(500, 1000); err != nil {
		t.Fatal(err)
	}
	sys.Run()

	if len(got) != 1 {
		t.Fatalf("deliveries=%d, want 1", len(got))
	}
	d := got[0]
	if d.SubscriptionID != "cheap" {
		t.Errorf("sub id=%q", d.SubscriptionID)
	}
	if d.Event.Values[0] != 42 {
		t.Errorf("event=%v", d.Event.Values)
	}
	if d.Latency <= 0 || d.At <= 0 {
		t.Errorf("timing: %+v", d)
	}
	if d.FalsePositive {
		t.Error("exact match marked as false positive")
	}

	st := sys.Stats()
	if st.Partitions != 1 || st.FlowMods == 0 || st.LinkPackets == 0 {
		t.Errorf("stats=%+v", st)
	}
}

func TestPublishWithoutAdvertise(t *testing.T) {
	sys := newSys(t)
	pub, err := sys.NewPublisher("p", sys.Hosts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(1, 2); !errors.Is(err, ErrNotAdvertised) {
		t.Errorf("err=%v, want ErrNotAdvertised", err)
	}
	if err := pub.Unadvertise(); !errors.Is(err, ErrNotAdvertised) {
		t.Errorf("unadvertise err=%v", err)
	}
}

// TestSameHostDelivery pins the access-switch hairpin: a subscriber on
// the publisher's own host receives matching events (via a flow whose out
// port is the ingress port), while a colocated non-matching subscription
// stays silent.
func TestSameHostDelivery(t *testing.T) {
	sys := newSys(t)
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter().Range("price", 0, 511)); err != nil {
		t.Fatal(err)
	}
	var same, other, miss int
	if err := sys.Subscribe("same", hosts[0], NewFilter().Range("price", 0, 255),
		func(Delivery) { same++ }); err != nil {
		t.Fatal(err)
	}
	if err := sys.Subscribe("other", hosts[7], NewFilter().Range("price", 0, 255),
		func(Delivery) { other++ }); err != nil {
		t.Fatal(err)
	}
	if err := sys.Subscribe("miss", hosts[0], NewFilter().Range("price", 600, 700),
		func(Delivery) { miss++ }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(10, 1); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if same != 1 || other != 1 {
		t.Errorf("same-host=%d other-host=%d, want 1/1", same, other)
	}
	if miss != 0 {
		t.Errorf("non-matching colocated subscription received %d events", miss)
	}
	if err := sys.VerifyTables(); err != nil {
		t.Errorf("tables inconsistent: %v", err)
	}
	// Hairpin flows tear down like any other: unsubscribing the colocated
	// subscriber stops its delivery without disturbing the remote one.
	if err := sys.Unsubscribe("same"); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(11, 1); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if same != 1 || other != 2 {
		t.Errorf("after unsubscribe: same-host=%d other-host=%d, want 1/2", same, other)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	sys := newSys(t)
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := sys.Subscribe("s", hosts[3], NewFilter(), func(Delivery) { count++ }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(1, 1); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if count != 1 {
		t.Fatalf("count=%d", count)
	}
	if err := sys.Unsubscribe("s"); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(2, 2); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if count != 1 {
		t.Errorf("delivery after unsubscribe: count=%d", count)
	}
	if err := sys.Unsubscribe("s"); !errors.Is(err, ErrUnknownSubscription) {
		t.Errorf("err=%v", err)
	}
}

func TestUnadvertiseStopsDelivery(t *testing.T) {
	sys := newSys(t)
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := sys.Subscribe("s", hosts[2], NewFilter(), func(Delivery) { count++ }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Unadvertise(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(1, 1); !errors.Is(err, ErrNotAdvertised) {
		t.Errorf("publish after unadvertise: %v", err)
	}
	sys.Run()
	if count != 0 {
		t.Errorf("count=%d", count)
	}
}

func TestMultiPartitionRing(t *testing.T) {
	sys := newSys(t, WithTopology(TopologyRing20), WithPartitions(4))
	hosts := sys.Hosts()
	if len(hosts) != 20 {
		t.Fatalf("hosts=%d", len(hosts))
	}
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	count := 0
	// A subscriber far around the ring (different partition).
	if err := sys.Subscribe("s", hosts[10], NewFilter(), func(Delivery) { count++ }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(7, 7); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if count != 1 {
		t.Errorf("cross-partition delivery count=%d", count)
	}
	st := sys.Stats()
	if st.Partitions != 4 {
		t.Errorf("partitions=%d", st.Partitions)
	}
	if st.ControlMessages == 0 {
		t.Error("multi-partition run must exchange control messages")
	}
}

func TestFatTree20Topology(t *testing.T) {
	sys := newSys(t, WithTopology(TopologyFatTree20), WithPartitions(2))
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := sys.Subscribe("s", hosts[len(hosts)-1], NewFilter(), func(Delivery) { count++ }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(1, 1); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if count != 1 {
		t.Errorf("delivery count=%d", count)
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil); err == nil {
		t.Error("nil schema must fail")
	}
	sch, _ := NewSchema(Attribute{Name: "a", Bits: 10})
	if _, err := NewSystem(sch, WithTopology(Topology(99))); err == nil {
		t.Error("unknown topology must fail")
	}
	if _, err := NewSystem(sch, WithPartitions(3)); err == nil {
		t.Error("testbed with >1 partitions must fail")
	}
	if _, err := NewSystem(sch, WithMaxDzLen(0)); err == nil {
		t.Error("zero maxDzLen must fail")
	}

	sys := newSys(t)
	if _, err := sys.NewPublisher("p", topo.NodeID(999)); err == nil {
		t.Error("bad host must fail")
	}
	if _, err := sys.NewPublisher("p", sys.Hosts()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewPublisher("p", sys.Hosts()[1]); err == nil {
		t.Error("duplicate publisher must fail")
	}
	if err := sys.Subscribe("s", sys.Hosts()[0], NewFilter(), nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Subscribe("s", sys.Hosts()[0], NewFilter().Range("price", 0, 1), nil); err == nil {
		t.Error("a different filter under a live subscription id must fail")
	}
	if err := sys.Subscribe("bad", sys.Hosts()[0], NewFilter().Range("ghost", 0, 1), nil); err == nil {
		t.Error("unknown attribute must fail")
	}
}

func TestHostCapacityOption(t *testing.T) {
	sys := newSys(t, WithHostCapacity(100))
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := sys.Subscribe("s", hosts[1], NewFilter(), func(Delivery) { count++ }); err != nil {
		t.Fatal(err)
	}
	// A burst far above capacity must drop events.
	for i := 0; i < 2000; i++ {
		if err := pub.Publish(uint32(i%1024), 1); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	if count >= 2000 {
		t.Errorf("capacity-limited host delivered everything (%d)", count)
	}
	if count == 0 {
		t.Error("host must deliver something")
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	sys := newSys(t)
	// LLDP border discovery at construction consumes a little simulated
	// time; the clock must still be well below a millisecond.
	start := sys.Now()
	if start > time.Millisecond {
		t.Fatalf("clock after discovery=%v, want <1ms", start)
	}
	got := sys.RunFor(time.Second)
	if got != start+time.Second || sys.Now() != start+time.Second {
		t.Errorf("RunFor=%v Now=%v (start %v)", got, sys.Now(), start)
	}
}

func TestDimensionSelection(t *testing.T) {
	sys := newSys(t)
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SelectDimensions(0.9); err == nil {
		t.Error("selection without events must fail")
	}
	// Subscriptions selective on price only; events vary on price,
	// constant on volume.
	for i := 0; i < 5; i++ {
		if err := sys.Subscribe(
			itoa(i), hosts[1+i%7],
			NewFilter().Range("price", uint32(i*100), uint32(i*100+50)),
			nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if err := pub.Publish(uint32((i*37)%1024), 500); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	sel, err := sys.SelectDimensions(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Ranking) != 2 || sel.K < 1 {
		t.Fatalf("selection=%+v", sel)
	}
	if sel.Ranking[0] != 0 {
		t.Errorf("price (dim 0) must rank first: %+v", sel)
	}
}

func itoa(i int) string { return string(rune('a' + i)) }

func TestOverloadReport(t *testing.T) {
	sys := newSys(t, WithHostCapacity(500))
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Subscribe("s", hosts[1], NewFilter(), nil); err != nil {
		t.Fatal(err)
	}
	// Before any traffic: nothing overloaded.
	if rep := sys.OverloadReport(); rep.Overloaded() {
		t.Errorf("fresh system overloaded: %+v", rep)
	}
	for i := 0; i < 3000; i++ {
		if err := pub.Publish(uint32(i%1024), 0); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	rep := sys.OverloadReport()
	if !rep.Overloaded() {
		t.Fatal("burst far above host capacity must overload")
	}
	if len(rep.OverloadedHosts) != 1 || rep.OverloadedHosts[0].Host != hosts[1] {
		t.Errorf("overloaded hosts=%+v", rep.OverloadedHosts)
	}
	if dr := rep.OverloadedHosts[0].DropRate(); dr <= 0 || dr >= 1 {
		t.Errorf("drop rate=%v", dr)
	}
	if len(rep.HottestLinks) == 0 {
		t.Error("hottest links must be populated")
	}
	for i := 1; i < len(rep.HottestLinks); i++ {
		if rep.HottestLinks[i].Packets > rep.HottestLinks[i-1].Packets {
			t.Error("hottest links must be sorted descending")
		}
	}
}

func TestOverloadReportLossyLinks(t *testing.T) {
	sch, err := NewSchema(Attribute{Name: "a", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Starve the links: tiny bandwidth and a shallow queue.
	params := topo.LinkParams{
		Latency:      time.Millisecond,
		BandwidthBps: 64 * 8 * 20,
		QueuePackets: 3,
	}
	sys, err := NewSystem(sch, WithLinkParams(params))
	if err != nil {
		t.Fatal(err)
	}
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Subscribe("s", hosts[7], NewFilter(), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := pub.Publish(uint32(i % 1024)); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	rep := sys.OverloadReport()
	if len(rep.LossyLinks) == 0 {
		t.Fatal("starved links must tail-drop")
	}
	if !rep.Overloaded() {
		t.Error("lossy links must flag overload")
	}
}

func TestInBandSignallingOption(t *testing.T) {
	sys := newSys(t, WithInBandSignalling(3*time.Millisecond))
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := sys.Subscribe("s", hosts[7], NewFilter(), func(Delivery) { count++ }); err != nil {
		t.Fatal(err)
	}
	// The request is still in flight: publishing now must NOT deliver
	// (the flows are not installed yet).
	if err := pub.Publish(1, 1); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if count != 0 {
		t.Fatalf("event before activation delivered: count=%d", count)
	}
	// After the control plane settles, delivery works.
	if err := pub.Publish(2, 2); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if count != 1 {
		t.Errorf("count=%d after activation", count)
	}
}

func TestResubscribe(t *testing.T) {
	sys := newSys(t)
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	var got []uint32
	if err := sys.Subscribe("s", hosts[6],
		NewFilter().Range("price", 0, 99),
		func(d Delivery) { got = append(got, d.Event.Values[0]) }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(50, 1); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	// Move the threshold window: the handler stays attached.
	if err := sys.Resubscribe("s", NewFilter().Range("price", 500, 599)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(50, 1); err != nil { // old window: filtered out
		t.Fatal(err)
	}
	if err := pub.Publish(550, 1); err != nil { // new window: delivered
		t.Fatal(err)
	}
	sys.Run()
	if len(got) != 2 || got[0] != 50 || got[1] != 550 {
		t.Errorf("got=%v, want [50 550]", got)
	}
	if err := sys.Resubscribe("ghost", NewFilter()); err == nil {
		t.Error("unknown id must fail")
	}
	if err := sys.Resubscribe("s", NewFilter().Range("ghost", 0, 1)); err == nil {
		t.Error("bad filter must fail")
	}
}

func TestStatsFPR(t *testing.T) {
	// A tiny dz budget forces truncation false positives; the Stats FPR
	// must reflect them.
	sys := newSys(t, WithMaxDzLen(2), WithMaxSubspaces(2))
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Subscribe("s", hosts[4],
		NewFilter().Range("price", 100, 120), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := pub.Publish(uint32((i*5)%1024), 1); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	st := sys.Stats()
	if st.Deliveries == 0 {
		t.Fatal("no deliveries")
	}
	if st.FalsePositives == 0 {
		t.Fatal("coarse dz budget must produce false positives")
	}
	if fpr := st.FPRPercent(); fpr <= 0 || fpr > 100 {
		t.Errorf("FPR=%v", fpr)
	}
	if (Stats{}).FPRPercent() != 0 {
		t.Error("empty stats FPR must be 0")
	}
}
