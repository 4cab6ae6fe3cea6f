package netem

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"pleroma/internal/dz"
	"pleroma/internal/ipmc"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
)

// buildLine creates h1 - R1 - R2 - R3 - h2 with flows forwarding dz "1"
// from h1's side to h2.
func buildLine(t *testing.T) (*DataPlane, *sim.Engine, []topo.NodeID, []topo.NodeID) {
	t.Helper()
	g, err := topo.Linear(3, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	dp := New(g, eng)
	hosts := g.Hosts()
	switches := g.Switches()

	path, err := g.ShortestPath(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	hops, err := g.RouteHops(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, hop := range hops {
		var actions []openflow.Action
		if i == len(hops)-1 {
			actions = []openflow.Action{{OutPort: hop.OutPort, SetDest: netip.MustParseAddr("fd00::2")}}
		} else {
			actions = []openflow.Action{{OutPort: hop.OutPort}}
		}
		f, err := openflow.NewFlow("1", 1, actions...)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := dp.Table(hop.Switch)
		if err != nil {
			t.Fatal(err)
		}
		tab.Add(f)
	}
	return dp, eng, hosts, switches
}

func TestEndToEndDelivery(t *testing.T) {
	dp, eng, hosts, _ := buildLine(t)
	var got []Delivery
	if err := dp.ConfigureHost(hosts[1], HostConfig{}, func(d Delivery) {
		got = append(got, d)
	}); err != nil {
		t.Fatal(err)
	}

	sch, err := space.UniformSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := sch.NewEvent(600, 5)
	if err := dp.Publish(hosts[0], "1", ev, 64); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	if len(got) != 1 {
		t.Fatalf("deliveries=%d, want 1", len(got))
	}
	d := got[0]
	if d.Packet.Publisher != hosts[0] || d.Packet.Seq != 1 {
		t.Errorf("packet meta wrong: %+v", d.Packet)
	}
	if d.Packet.Dst != netip.MustParseAddr("fd00::2") {
		t.Errorf("terminal rewrite missing: dst=%v", d.Packet.Dst)
	}

	// Expected latency: 4 links × (latency + serialization) + 3 lookups.
	ser := time.Duration(64 * 8 * int64(time.Second) / topo.DefaultLinkParams.BandwidthBps)
	want := 4*(topo.DefaultLinkParams.Latency+ser) + 3*DefaultSwitchConfig.LookupDelay
	if d.At != want {
		t.Errorf("delivery at %v, want %v", d.At, want)
	}
	if dp.HostReceived(hosts[1]) != 1 {
		t.Errorf("HostReceived=%d", dp.HostReceived(hosts[1]))
	}
}

func TestTableMissCountsAndPunts(t *testing.T) {
	dp, eng, hosts, switches := buildLine(t)
	punted := 0
	dp.SetPuntHandler(func(sw topo.NodeID, inPort openflow.PortID, pkt Packet) {
		punted++
	})
	sch, _ := space.UniformSchema(2)
	ev, _ := sch.NewEvent(1, 1)
	// dz "0" matches no installed flow.
	if err := dp.Publish(hosts[0], "0", ev, 64); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got := dp.SwitchStatsFor(switches[0]).TableMisses; got != 1 {
		t.Errorf("misses=%d, want 1", got)
	}
	if punted != 1 {
		t.Errorf("punted=%d, want 1", punted)
	}
	if dp.HostReceived(hosts[1]) != 0 {
		t.Error("nothing must be delivered")
	}
}

func TestSignalPunt(t *testing.T) {
	dp, eng, hosts, switches := buildLine(t)
	var gotSw topo.NodeID
	var gotPkt Packet
	calls := 0
	dp.SetPuntHandler(func(sw topo.NodeID, inPort openflow.PortID, pkt Packet) {
		gotSw, gotPkt = sw, pkt
		calls++
	})
	pkt := Packet{
		Dst:       ipmc.SignalAddr,
		Publisher: hosts[0],
		SizeBytes: 64,
		HopLimit:  DefaultHopLimit,
	}
	if err := dp.SendFromHost(hosts[0], pkt); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if calls != 1 {
		t.Fatalf("punt calls=%d, want 1", calls)
	}
	if gotSw != switches[0] {
		t.Errorf("punted at %d, want first switch %d", gotSw, switches[0])
	}
	if !ipmc.IsSignal(gotPkt.Dst) {
		t.Error("punted packet must carry IP_vir")
	}
	if got := dp.SwitchStatsFor(switches[0]).Punted; got != 1 {
		t.Errorf("punt counter=%d", got)
	}
}

func TestHostSaturation(t *testing.T) {
	dp, eng, hosts, _ := buildLine(t)
	received := 0
	if err := dp.ConfigureHost(hosts[1], HostConfig{CapacityPerSec: 1000, MaxQueue: 10},
		func(Delivery) { received++ }); err != nil {
		t.Fatal(err)
	}
	sch, _ := space.UniformSchema(2)
	ev, _ := sch.NewEvent(1, 1)
	// Burst of 100 packets back-to-back at t≈0: the 1k/s host can queue at
	// most 10; the rest must drop.
	for i := 0; i < 100; i++ {
		if err := dp.Publish(hosts[0], "1", ev, 64); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	rec := dp.HostReceived(hosts[1])
	drop := dp.HostDropped(hosts[1])
	if rec+drop != 100 {
		t.Fatalf("rec+drop=%d, want 100", rec+drop)
	}
	if drop == 0 {
		t.Error("saturated host must drop")
	}
	if rec == 0 {
		t.Error("host must deliver some packets")
	}
	if int(rec) != received {
		t.Errorf("callback count %d != received %d", received, rec)
	}
}

func TestUnlimitedHostNoDrops(t *testing.T) {
	dp, eng, hosts, _ := buildLine(t)
	sch, _ := space.UniformSchema(2)
	ev, _ := sch.NewEvent(1, 1)
	for i := 0; i < 50; i++ {
		if err := dp.Publish(hosts[0], "1", ev, 64); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if dp.HostReceived(hosts[1]) != 50 || dp.HostDropped(hosts[1]) != 0 {
		t.Errorf("received=%d dropped=%d", dp.HostReceived(hosts[1]), dp.HostDropped(hosts[1]))
	}
}

func TestMulticastFanout(t *testing.T) {
	// One switch, one publisher, two subscribers: flow with two out ports.
	g := topo.NewGraph()
	sw := g.AddSwitch("R1")
	pub := g.AddHost("p")
	s1 := g.AddHost("s1")
	s2 := g.AddHost("s2")
	for _, h := range []topo.NodeID{pub, s1, s2} {
		if _, _, err := g.Connect(h, sw, topo.DefaultLinkParams); err != nil {
			t.Fatal(err)
		}
	}
	eng := sim.NewEngine()
	dp := New(g, eng)
	p1, _ := g.PortTowards(sw, s1)
	p2, _ := g.PortTowards(sw, s2)
	f, err := openflow.NewFlow("1", 1, openflow.Action{OutPort: p1}, openflow.Action{OutPort: p2})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := dp.Table(sw)
	tab.Add(f)

	sch, _ := space.UniformSchema(2)
	ev, _ := sch.NewEvent(1023, 0)
	if err := dp.Publish(pub, "1", ev, 64); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if dp.HostReceived(s1) != 1 || dp.HostReceived(s2) != 1 {
		t.Errorf("fanout: s1=%d s2=%d", dp.HostReceived(s1), dp.HostReceived(s2))
	}
	if got := dp.SwitchStatsFor(sw).Forwarded; got != 2 {
		t.Errorf("forwarded=%d, want 2", got)
	}
	if got := dp.TotalLinkPackets(); got != 3 { // 1 in + 2 out
		t.Errorf("link packets=%d, want 3", got)
	}
}

func TestIngressPortSuppression(t *testing.T) {
	// Split horizon applies to trunk ports only: a flow listing the ingress
	// trunk must not bounce the packet back towards its upstream switch,
	// but a flow listing the ingress *host* port hairpins — that is how a
	// subscriber colocated with the publisher receives the event.
	g := topo.NewGraph()
	sw1 := g.AddSwitch("R1")
	sw2 := g.AddSwitch("R2")
	pub := g.AddHost("p")
	subHost := g.AddHost("s")
	if _, _, err := g.Connect(pub, sw1, topo.DefaultLinkParams); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Connect(sw1, sw2, topo.DefaultLinkParams); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Connect(subHost, sw2, topo.DefaultLinkParams); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	dp := New(g, eng)

	// sw1: hairpin back to the publisher's own port plus the trunk onward.
	hairpin, _ := g.PortTowards(sw1, pub)
	trunkOut, _ := g.PortTowards(sw1, sw2)
	f1, err := openflow.NewFlow("1", 1,
		openflow.Action{OutPort: hairpin}, openflow.Action{OutPort: trunkOut})
	if err != nil {
		t.Fatal(err)
	}
	tab1, _ := dp.Table(sw1)
	tab1.Add(f1)

	// sw2: the ingress trunk appears among the out ports (unioned entry);
	// the packet must not bounce back towards sw1.
	trunkIn, _ := g.PortTowards(sw2, sw1)
	outPort, _ := g.PortTowards(sw2, subHost)
	f2, err := openflow.NewFlow("1", 1,
		openflow.Action{OutPort: trunkIn}, openflow.Action{OutPort: outPort})
	if err != nil {
		t.Fatal(err)
	}
	tab2, _ := dp.Table(sw2)
	tab2.Add(f2)

	sch, _ := space.UniformSchema(2)
	ev, _ := sch.NewEvent(1, 1)
	if err := dp.Publish(pub, "1", ev, 64); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if dp.HostReceived(pub) != 1 {
		t.Errorf("publisher host hairpin: received %d, want 1", dp.HostReceived(pub))
	}
	if dp.HostReceived(subHost) != 1 {
		t.Errorf("subscriber received %d, want 1", dp.HostReceived(subHost))
	}
	// The trunk bounce at sw2 was suppressed: had it fired, the packet
	// would have re-entered sw1 and hairpinned to the publisher again.
	if got := dp.SwitchStatsFor(sw2).Forwarded; got != 1 {
		t.Errorf("sw2 forwarded %d, want 1 (split horizon on trunk)", got)
	}
}

func TestHopLimitBreaksLoops(t *testing.T) {
	// Three switches in a cycle, flows forwarding around the ring forever.
	g := topo.NewGraph()
	var sws []topo.NodeID
	for i := 0; i < 3; i++ {
		sws = append(sws, g.AddSwitch("R"))
	}
	pub := g.AddHost("p")
	if _, _, err := g.Connect(pub, sws[0], topo.DefaultLinkParams); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := g.Connect(sws[i], sws[(i+1)%3], topo.DefaultLinkParams); err != nil {
			t.Fatal(err)
		}
	}
	eng := sim.NewEngine()
	dp := New(g, eng)
	for i := 0; i < 3; i++ {
		port, _ := g.PortTowards(sws[i], sws[(i+1)%3])
		f, err := openflow.NewFlow("1", 1, openflow.Action{OutPort: port})
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := dp.Table(sws[i])
		tab.Add(f)
	}
	sch, _ := space.UniformSchema(2)
	ev, _ := sch.NewEvent(1, 1)
	if err := dp.Publish(pub, "1", ev, 64); err != nil {
		t.Fatal(err)
	}
	eng.Run() // must terminate thanks to the hop limit
	var exceeded uint64
	for _, sw := range sws {
		exceeded += dp.SwitchStatsFor(sw).HopExceeded
	}
	if exceeded != 1 {
		t.Errorf("hop-exceeded=%d, want 1", exceeded)
	}
}

func TestSoftwareSwitchPenaltyGrowsWithTableSize(t *testing.T) {
	mk := func(flows int) time.Duration {
		g, err := topo.Linear(1, topo.DefaultLinkParams)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		dp := New(g, eng)
		sw := g.Switches()[0]
		dp.SetAllSwitchConfigs(SwitchConfig{
			LookupDelay:    10 * time.Microsecond,
			PerFlowPenalty: time.Microsecond,
		})
		hosts := g.Hosts()
		tab, _ := dp.Table(sw)
		outPort, _ := g.PortTowards(sw, hosts[1])
		for i := 0; i < flows; i++ {
			e := fillerExpr(i)
			f, err := openflow.NewFlow(e, e.Len(), openflow.Action{OutPort: 99})
			if err != nil {
				t.Fatal(err)
			}
			tab.Add(f)
		}
		f, err := openflow.NewFlow("1", 1, openflow.Action{OutPort: outPort})
		if err != nil {
			t.Fatal(err)
		}
		tab.Add(f)
		var at time.Duration
		if err := dp.ConfigureHost(hosts[1], HostConfig{}, func(d Delivery) { at = d.At }); err != nil {
			t.Fatal(err)
		}
		sch, _ := space.UniformSchema(2)
		ev, _ := sch.NewEvent(1, 1)
		if err := dp.Publish(hosts[0], "1", ev, 64); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return at
	}
	small := mk(10)
	big := mk(5000)
	if big <= small {
		t.Errorf("software switch must slow down with table size: %v vs %v", small, big)
	}
}

// fillerExpr generates distinct expressions for table-stuffing.
func fillerExpr(i int) dz.Expr {
	e := dz.Expr("0")
	for b := 0; b < 16; b++ {
		if i&(1<<b) != 0 {
			e += "1"
		} else {
			e += "0"
		}
	}
	return e
}

func TestTableErrors(t *testing.T) {
	g, err := topo.Linear(1, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	dp := New(g, sim.NewEngine())
	hosts := g.Hosts()
	if _, err := dp.Table(hosts[0]); err == nil {
		t.Error("Table on host must fail")
	}
	if err := dp.SetSwitchConfig(hosts[0], SwitchConfig{}); err == nil {
		t.Error("SetSwitchConfig on host must fail")
	}
	if err := dp.ConfigureHost(g.Switches()[0], HostConfig{}, nil); err == nil {
		t.Error("ConfigureHost on switch must fail")
	}
	if err := dp.Publish(hosts[0], "01x", space.Event{}, 64); err == nil {
		t.Error("invalid expr must fail")
	}
	if err := dp.SendFromHost(g.Switches()[0], Packet{}); err == nil {
		t.Error("SendFromHost on switch must fail")
	}
}

func TestLinkQueueTailDrop(t *testing.T) {
	// A slow, shallow link: a burst overruns the 2-packet queue.
	params := topo.LinkParams{
		Latency:      time.Millisecond,
		BandwidthBps: 64 * 8 * 10, // 10 packets/s at 64B
		QueuePackets: 2,
	}
	g := topo.NewGraph()
	sw := g.AddSwitch("R1")
	pub := g.AddHost("p")
	sub := g.AddHost("s")
	if _, _, err := g.Connect(pub, sw, topo.DefaultLinkParams); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Connect(sub, sw, params); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	dp := New(g, eng)
	port, _ := g.PortTowards(sw, sub)
	f, err := openflow.NewFlow("1", 1, openflow.Action{OutPort: port})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := dp.Table(sw)
	tab.Add(f)

	sch, _ := space.UniformSchema(2)
	ev, _ := sch.NewEvent(1, 1)
	for i := 0; i < 10; i++ {
		if err := dp.Publish(pub, "1", ev, 64); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	link, _ := g.LinkBetween(sw, sub)
	ls := dp.LinkStatsFor(link)
	if ls == nil {
		t.Fatal("no link stats")
	}
	if ls.Dropped[sw] == 0 {
		t.Error("shallow queue must tail-drop under a burst")
	}
	if ls.Packets[sw]+ls.Dropped[sw] != 10 {
		t.Errorf("sent+dropped=%d, want 10", ls.Packets[sw]+ls.Dropped[sw])
	}
	if got := dp.HostReceived(sub); got != ls.Packets[sw] {
		t.Errorf("received=%d, want %d (transmitted)", got, ls.Packets[sw])
	}
}

func TestUnboundedQueueNoDrops(t *testing.T) {
	dp, eng, hosts, _ := buildLine(t)
	sch, _ := space.UniformSchema(2)
	ev, _ := sch.NewEvent(1, 1)
	for i := 0; i < 200; i++ {
		if err := dp.Publish(hosts[0], "1", ev, 64); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for _, l := range dp.Graph().Links() {
		if ls := dp.LinkStatsFor(l); ls != nil {
			for n, d := range ls.Dropped {
				if d != 0 {
					t.Errorf("unbounded link dropped %d at %d", d, n)
				}
			}
		}
	}
	if dp.HostReceived(hosts[1]) != 200 {
		t.Errorf("received=%d", dp.HostReceived(hosts[1]))
	}
}

func TestFlowProgrammerSurface(t *testing.T) {
	g, err := topo.Linear(2, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	dp := New(g, sim.NewEngine())
	sw := g.Switches()[0]
	host := g.Hosts()[0]

	f, err := openflow.NewFlow("10", 2, openflow.Action{OutPort: 1})
	if err != nil {
		t.Fatal(err)
	}
	one := func(node topo.NodeID, op openflow.FlowOp) error {
		_, err := dp.ApplyBatch(node, []openflow.FlowOp{op}, nil)
		return err
	}
	id, err := addOne(dp, sw, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := one(host, openflow.AddOp(f)); err == nil {
		t.Error("add on host must fail")
	}
	if err := one(sw, openflow.ModifyOp(id, 2, []openflow.Action{{OutPort: 2}})); err != nil {
		t.Fatal(err)
	}
	if err := one(sw, openflow.ModifyOp(999, 2, nil)); err == nil {
		t.Error("modify of an unknown id must fail")
	}
	if err := one(host, openflow.ModifyOp(id, 2, nil)); err == nil {
		t.Error("modify on host must fail")
	}
	flows, err := dp.Flows(sw)
	if err != nil || len(flows) != 1 || flows[0].Actions[0].OutPort != 2 {
		t.Fatalf("Flows=%v, %v", flows, err)
	}
	if _, err := dp.Flows(host); err == nil {
		t.Error("Flows on host must fail")
	}
	if got := dp.FlowModCount(); got != 2 { // add + modify
		t.Errorf("FlowModCount=%d, want 2", got)
	}
	if err := one(sw, openflow.DeleteOp(id)); err != nil {
		t.Fatal(err)
	}
	if err := one(sw, openflow.DeleteOp(id)); err == nil {
		t.Error("double delete must fail")
	}
	if err := one(host, openflow.DeleteOp(id)); err == nil {
		t.Error("delete on host must fail")
	}
}

func TestHostAddrUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := topo.NodeID(0); i < 100; i++ {
		a := HostAddr(i)
		if !a.Is6() {
			t.Fatalf("HostAddr(%d) not IPv6", i)
		}
		if seen[a.String()] {
			t.Fatalf("HostAddr(%d) collides: %v", i, a)
		}
		seen[a.String()] = true
	}
}

func TestSendFromSwitchPortErrors(t *testing.T) {
	g, err := topo.Linear(2, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	dp := New(g, sim.NewEngine())
	host := g.Hosts()[0]
	sw := g.Switches()[0]
	if err := dp.SendFromSwitchPort(host, 1, Packet{}); err == nil {
		t.Error("sending from a host must fail")
	}
	if err := dp.SendFromSwitchPort(sw, 99, Packet{}); err == nil {
		t.Error("bad port must fail")
	}
}

func TestSendFromSwitchPortDeliversToHost(t *testing.T) {
	g, err := topo.Linear(1, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	dp := New(g, eng)
	sw := g.Switches()[0]
	host := g.Hosts()[0]
	port, _ := g.PortTowards(sw, host)
	got := 0
	if err := dp.ConfigureHost(host, HostConfig{}, func(Delivery) { got++ }); err != nil {
		t.Fatal(err)
	}
	if err := dp.SendFromSwitchPort(sw, port, Packet{SizeBytes: 64}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 1 {
		t.Errorf("host received %d, want 1", got)
	}
}

func TestEngineAccessor(t *testing.T) {
	g, _ := topo.Linear(1, topo.DefaultLinkParams)
	eng := sim.NewEngine()
	dp := New(g, eng)
	if dp.Engine() != eng {
		t.Error("Engine accessor wrong")
	}
	if dp.Graph() != g {
		t.Error("Graph accessor wrong")
	}
	if dp.SwitchStatsFor(topo.NodeID(999)) != (SwitchStats{}) {
		t.Error("unknown switch stats must be zero")
	}
	if dp.HostReceived(topo.NodeID(999)) != 0 || dp.HostDropped(topo.NodeID(999)) != 0 {
		t.Error("unknown host counters must be zero")
	}
	if err := dp.SetSwitchConfig(g.Switches()[0], SwitchConfig{LookupDelay: time.Microsecond}); err != nil {
		t.Fatal(err)
	}
}

func TestPathRecording(t *testing.T) {
	dp, eng, hosts, switches := buildLine(t)
	dp.RecordPaths(true)
	var path []topo.NodeID
	if err := dp.ConfigureHost(hosts[1], HostConfig{}, func(d Delivery) {
		path = d.Packet.Path
	}); err != nil {
		t.Fatal(err)
	}
	sch, _ := space.UniformSchema(2)
	ev, _ := sch.NewEvent(1, 1)
	if err := dp.Publish(hosts[0], "1", ev, 64); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(path) != len(switches) {
		t.Fatalf("path=%v, want all %d switches", path, len(switches))
	}
	for i, sw := range switches {
		if path[i] != sw {
			t.Fatalf("path=%v, want %v", path, switches)
		}
	}
}

func TestStampAndHopsRideTheDelivery(t *testing.T) {
	dp, eng, hosts, switches := buildLine(t)
	var got []Delivery
	if err := dp.ConfigureHost(hosts[1], HostConfig{}, func(d Delivery) {
		got = append(got, d)
	}); err != nil {
		t.Fatal(err)
	}
	sch, _ := space.UniformSchema(2)
	ev, _ := sch.NewEvent(1, 1)
	st := Stamp{TraceID: 0xfeed, SpanID: 0xf00d, OriginWall: 123456789, Tree: 7, Partition: 2}
	if err := dp.PublishStamped(hosts[0], "1", ev, 64, st); err != nil {
		t.Fatal(err)
	}
	if err := dp.PublishBatch(hosts[0], []Publication{{Key: key1, Event: ev, Stamp: st}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("deliveries=%d, want 2", len(got))
	}
	for i, d := range got {
		if d.Packet.Stamp != st {
			t.Fatalf("delivery %d stamp = %+v, want %+v", i, d.Packet.Stamp, st)
		}
		if int(d.Packet.Hops) != len(switches) {
			t.Fatalf("delivery %d hops = %d, want %d", i, d.Packet.Hops, len(switches))
		}
	}
	// An unstamped publish delivers a zero stamp.
	got = nil
	if err := dp.Publish(hosts[0], "1", ev, 64); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 1 || got[0].Packet.Stamp != (Stamp{}) {
		t.Fatalf("unstamped delivery = %+v", got)
	}
}

// SetSwitchConfig overrides the forwarding model of one switch. Call it
// between runs or from a single-engine callback (see DataPlane); a lookup
// scheduled after the call uses the new config.
func (dp *DataPlane) SetSwitchConfig(sw topo.NodeID, cfg SwitchConfig) error {
	if _, ok := dp.tables[sw]; !ok {
		return fmt.Errorf("netem: node %d is not a switch", sw)
	}
	dp.swCfg[sw] = cfg
	if p := dp.planFor(sw); p != nil {
		p.cfg = cfg
	}
	return nil
}
