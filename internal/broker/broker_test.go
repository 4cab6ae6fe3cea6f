package broker

import (
	"testing"
	"time"

	"pleroma/internal/dz"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
)

func setup(t *testing.T) (*topo.Graph, *sim.Engine, *Overlay, *[]Delivery) {
	t.Helper()
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	var got []Delivery
	o, err := New(g, eng, DefaultConfig, func(d Delivery) { got = append(got, d) })
	if err != nil {
		t.Fatal(err)
	}
	return g, eng, o, &got
}

func rect(lo0, hi0, lo1, hi1 uint32) dz.Rect {
	return dz.Rect{{Lo: lo0, Hi: hi0}, {Lo: lo1, Hi: hi1}}
}

func TestBrokerDelivery(t *testing.T) {
	g, eng, o, got := setup(t)
	hosts := g.Hosts()
	if err := o.Subscribe("s1", hosts[5], rect(0, 500, 0, 1023)); err != nil {
		t.Fatal(err)
	}
	if err := o.Subscribe("s2", hosts[6], rect(600, 700, 0, 1023)); err != nil {
		t.Fatal(err)
	}
	if err := o.Publish(hosts[0], space.Event{Values: []uint32{100, 9}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(*got) != 1 {
		t.Fatalf("deliveries=%d, want 1", len(*got))
	}
	d := (*got)[0]
	if d.SubID != "s1" || d.Host != hosts[5] {
		t.Errorf("delivery=%+v", d)
	}
	if d.At <= 0 {
		t.Error("delivery must take simulated time")
	}
	st := o.Stats()
	if st.Deliveries != 1 {
		t.Errorf("stats deliveries=%d", st.Deliveries)
	}
	if st.FilterEvaluations == 0 {
		t.Error("software matching must be counted")
	}
}

func TestBrokerNoFalseDeliveries(t *testing.T) {
	g, eng, o, got := setup(t)
	hosts := g.Hosts()
	if err := o.Subscribe("s1", hosts[3], rect(0, 10, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := o.Publish(hosts[0], space.Event{Values: []uint32{500, 500}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(*got) != 0 {
		t.Fatalf("deliveries=%d, want 0", len(*got))
	}
}

func TestBrokerCoveringSuppression(t *testing.T) {
	g, _, o, _ := setup(t)
	hosts := g.Hosts()
	if err := o.Subscribe("wide", hosts[2], rect(0, 1023, 0, 1023)); err != nil {
		t.Fatal(err)
	}
	msgs := o.Stats().ControlMessages
	if msgs == 0 {
		t.Fatal("first subscription must propagate")
	}
	// A narrower subscription at the same host is fully covered.
	if err := o.Subscribe("narrow", hosts[2], rect(5, 6, 5, 6)); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.ControlMessages != msgs {
		t.Errorf("covered subscription must not propagate: %d -> %d", msgs, st.ControlMessages)
	}
	if st.SuppressedByCovering == 0 {
		t.Error("suppression must be counted")
	}
}

func TestBrokerCoveredSubscriptionStillDelivered(t *testing.T) {
	g, eng, o, got := setup(t)
	hosts := g.Hosts()
	if err := o.Subscribe("wide", hosts[2], rect(0, 1023, 0, 1023)); err != nil {
		t.Fatal(err)
	}
	if err := o.Subscribe("narrow", hosts[2], rect(0, 200, 0, 1023)); err != nil {
		t.Fatal(err)
	}
	if err := o.Publish(hosts[7], space.Event{Values: []uint32{100, 100}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(*got) != 2 {
		t.Fatalf("deliveries=%d, want 2 (both subscriptions match)", len(*got))
	}
}

func TestBrokerDuplicateID(t *testing.T) {
	g, _, o, _ := setup(t)
	hosts := g.Hosts()
	if err := o.Subscribe("x", hosts[0], rect(0, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := o.Subscribe("x", hosts[1], rect(0, 1, 0, 1)); err == nil {
		t.Error("duplicate id must fail")
	}
}

func TestBrokerValidation(t *testing.T) {
	g, eng, o, _ := setup(t)
	sw := g.Switches()[0]
	if err := o.Subscribe("s", sw, rect(0, 1, 0, 1)); err == nil {
		t.Error("subscribing from a switch must fail")
	}
	if err := o.Publish(sw, space.Event{Values: []uint32{0, 0}}); err == nil {
		t.Error("publishing from a switch must fail")
	}
	if err := o.PublishAt(time.Millisecond, sw, space.Event{Values: []uint32{0, 0}}); err == nil {
		t.Error("scheduling a publish from a switch must fail")
	}
	if n := eng.Pending(); n != 0 {
		t.Errorf("refused publishes left %d events queued", n)
	}
	// Topology without switches is rejected.
	empty := topo.NewGraph()
	empty.AddHost("h")
	if _, err := New(empty, sim.NewEngine(), DefaultConfig, nil); err == nil {
		t.Error("switchless topology must fail")
	}
}

func TestBrokerDelayGrowsWithFilterLoad(t *testing.T) {
	run := func(nSubs int) time.Duration {
		g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		var last time.Duration
		o, err := New(g, eng, DefaultConfig, func(d Delivery) {
			if d.SubID == "target" {
				last = d.At
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		hosts := g.Hosts()
		if err := o.Subscribe("target", hosts[7], rect(0, 100, 0, 1023)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nSubs; i++ {
			// Filters that never match but still cost evaluation time.
			if err := o.Subscribe(
				subID(i), hosts[1+i%6], rect(1000, 1023, 1000, 1023)); err != nil {
				t.Fatal(err)
			}
		}
		if err := o.Publish(hosts[0], space.Event{Values: []uint32{50, 50}}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return last
	}
	small := run(5)
	big := run(500)
	if big <= small {
		t.Errorf("broker delay must grow with filter load: %v vs %v", small, big)
	}
}

func subID(i int) string {
	return "f" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

func TestBrokerMessagesNoDuplicates(t *testing.T) {
	// A single matching subscriber: the event must traverse each link at
	// most once (tree forwarding).
	g, eng, o, got := setup(t)
	hosts := g.Hosts()
	if err := o.Subscribe("s1", hosts[7], rect(0, 1023, 0, 1023)); err != nil {
		t.Fatal(err)
	}
	if err := o.Publish(hosts[0], space.Event{Values: []uint32{1, 1}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(*got) != 1 {
		t.Fatalf("deliveries=%d, want exactly 1", len(*got))
	}
	st := o.Stats()
	// Upper bound: one hop per switch plus access links.
	maxMsgs := uint64(len(g.Switches()) + 2)
	if st.EventMessages > maxMsgs {
		t.Errorf("event messages=%d, exceeds tree bound %d", st.EventMessages, maxMsgs)
	}
}

func TestBrokerUnsubscribe(t *testing.T) {
	g, eng, o, got := setup(t)
	hosts := g.Hosts()
	if err := o.Subscribe("s1", hosts[5], rect(0, 1023, 0, 1023)); err != nil {
		t.Fatal(err)
	}
	if err := o.Publish(hosts[0], space.Event{Values: []uint32{1, 1}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(*got) != 1 {
		t.Fatalf("deliveries=%d", len(*got))
	}
	if err := o.Unsubscribe("s1"); err != nil {
		t.Fatal(err)
	}
	if err := o.Publish(hosts[0], space.Event{Values: []uint32{2, 2}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(*got) != 1 {
		t.Errorf("delivery after unsubscribe: %d", len(*got))
	}
	if err := o.Unsubscribe("s1"); err == nil {
		t.Error("double unsubscribe must fail")
	}
}

func TestBrokerUnsubscribeRevivesCoveredSubscription(t *testing.T) {
	g, eng, o, got := setup(t)
	hosts := g.Hosts()
	// Wide covers narrow at the same host; narrow's propagation is
	// suppressed.
	if err := o.Subscribe("wide", hosts[5], rect(0, 1023, 0, 1023)); err != nil {
		t.Fatal(err)
	}
	if err := o.Subscribe("narrow", hosts[5], rect(0, 100, 0, 1023)); err != nil {
		t.Fatal(err)
	}
	if o.Stats().SuppressedByCovering == 0 {
		t.Fatal("narrow must be suppressed")
	}
	if err := o.Unsubscribe("wide"); err != nil {
		t.Fatal(err)
	}
	// narrow must still receive events after wide's removal.
	if err := o.Publish(hosts[0], space.Event{Values: []uint32{50, 50}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	found := false
	for _, d := range *got {
		if d.SubID == "narrow" {
			found = true
		}
		if d.SubID == "wide" {
			t.Error("removed subscription delivered")
		}
	}
	if !found {
		t.Error("covered subscription lost its routing after coverer left")
	}
}

// handlerFunc is this file's adapter from a function to a sim.Handler.
type handlerFunc func(sim.Event)

func (f handlerFunc) HandleEvent(ev sim.Event) { f(ev) }

// TestBrokerPublishAtMatchesPublishAtTheInstant: a scheduled publish
// delivers what an event calling Publish at that instant delivers, at the
// same instants, and stamps its deliveries with that instant.
func TestBrokerPublishAtMatchesPublishAtTheInstant(t *testing.T) {
	run := func(scheduled bool) []Delivery {
		g, eng, o, got := setup(t)
		hosts := g.Hosts()
		for i, h := range hosts[1:] {
			if err := o.Subscribe(string(rune('a'+i)), h, rect(uint32(i*100), uint32(i*100+300), 0, 1023)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 12; i++ {
			ev := space.Event{Values: []uint32{uint32(i * 70), 5}}
			at := time.Duration(i/2) * 150 * time.Microsecond
			if scheduled {
				if err := o.PublishAt(at, hosts[0], ev); err != nil {
					t.Fatal(err)
				}
				continue
			}
			eng.AtEvent(at, handlerFunc(func(sim.Event) {
				if err := o.Publish(hosts[0], ev); err != nil {
					t.Error(err)
				}
			}), sim.Event{})
		}
		eng.Run()
		return *got
	}
	want, got := run(false), run(true)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("PublishAt delivered %d, Publish at the instant %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.SubID != b.SubID || a.At != b.At || a.SentAt != b.SentAt || a.Event.Values[0] != b.Event.Values[0] {
			t.Fatalf("delivery %d: PublishAt %+v, at the instant %+v", i, b, a)
		}
		if b.SentAt != time.Duration(b.Event.Values[0]/140)*150*time.Microsecond {
			t.Fatalf("delivery %d stamped SentAt %v", i, b.SentAt)
		}
	}
}
