package netem

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pleroma/internal/dz"
	"pleroma/internal/ipmc"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
)

// TestToggleHandlersBetweenRuns flips the punt handler, path recording and
// a switch config between runs — where their owner, the goroutine driving
// the data plane, sets them — and checks the counters afterwards, exact
// between runs, against the 300 packets it published: no toggle may cost or
// double a packet.
func TestToggleHandlersBetweenRuns(t *testing.T) {
	dp, eng, hosts, switches := buildLine(t)
	if err := dp.ConfigureHost(hosts[1], HostConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	sch, err := space.UniformSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := sch.NewEvent(600, 5)
	toggle := func(i int) {
		dp.RecordPaths(i%2 == 0)
		if i%3 == 0 {
			dp.SetPuntHandler(func(topo.NodeID, openflow.PortID, Packet) {})
		} else {
			dp.SetPuntHandler(nil)
		}
		cfg := DefaultSwitchConfig
		if i%5 == 0 {
			cfg.PerFlowPenalty = time.Microsecond
		}
		if err := dp.SetSwitchConfig(switches[0], cfg); err != nil {
			t.Fatal(err)
		}
	}

	const packets = 300
	for i := 0; i < packets; i++ {
		toggle(i)
		if err := dp.Publish(hosts[0], "1", ev, 64); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	// Every packet crosses the line: host, three switches, host.
	if got := dp.HostReceived(hosts[1]); got != packets {
		t.Errorf("HostReceived = %d, want %d", got, packets)
	}
	if got, want := dp.TotalLinkPackets(), uint64(4*packets); got != want {
		t.Errorf("TotalLinkPackets = %d, want %d", got, want)
	}
	for _, sw := range switches {
		if got := dp.SwitchStatsFor(sw); got != (SwitchStats{Forwarded: packets}) {
			t.Errorf("switch %d stats %+v, want %d forwarded and nothing else", sw, got, packets)
		}
	}
}

// TestPublishBatchMatchesSequential pins the PublishBatch contract: the
// packet stream it produces — sequence numbers, deliveries, timestamps,
// final clock — is indistinguishable from sequential Publish calls at the
// same instant.
func TestPublishBatchMatchesSequential(t *testing.T) {
	run := func(batch bool) ([]Delivery, time.Duration) {
		dp, eng, hosts, _ := buildLine(t)
		var got []Delivery
		if err := dp.ConfigureHost(hosts[1], HostConfig{CapacityPerSec: 50_000, MaxQueue: 8},
			func(d Delivery) { got = append(got, d) }); err != nil {
			t.Fatal(err)
		}
		sch, err := space.UniformSchema(2)
		if err != nil {
			t.Fatal(err)
		}
		var pubs []Publication
		for i := 0; i < 20; i++ {
			ev, err := sch.NewEvent(uint32(i*30), uint32(i))
			if err != nil {
				t.Fatal(err)
			}
			pubs = append(pubs, Publication{Key: key1, Event: ev})
		}
		if batch {
			if err := dp.PublishBatch(hosts[0], pubs); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, pb := range pubs {
				if err := dp.Publish(hosts[0], "1", pb.Event, pb.Size); err != nil {
					t.Fatal(err)
				}
			}
		}
		return got, eng.Run()
	}
	seq, seqEnd := run(false)
	bat, batEnd := run(true)
	if seqEnd != batEnd {
		t.Fatalf("final clock differs: sequential %v, batch %v", seqEnd, batEnd)
	}
	if len(seq) != len(bat) {
		t.Fatalf("delivery count differs: sequential %d, batch %d", len(seq), len(bat))
	}
	for i := range seq {
		a, b := seq[i], bat[i]
		if a.At != b.At || a.Packet.Seq != b.Packet.Seq ||
			a.Packet.SentAt != b.Packet.SentAt ||
			a.Packet.Event.Values[0] != b.Packet.Event.Values[0] {
			t.Fatalf("delivery %d differs:\nsequential %+v\nbatch      %+v", i, a, b)
		}
	}
}

// handlerFunc is this file's adapter from a function to a sim.Handler.
type handlerFunc func(sim.Event)

func (f handlerFunc) HandleEvent(ev sim.Event) { f(ev) }

// TestPublishAtMatchesPublishAtTheInstant pins what a scheduled publish
// is: the same packets, pushed at the same instants and in the same order,
// as an event that calls Publish at that instant — staggered and tied
// instants, a host with a bounded queue that drops, events scheduled
// before and after the publishes they tie with.
func TestPublishAtMatchesPublishAtTheInstant(t *testing.T) {
	run := func(scheduled bool) ([]Delivery, time.Duration, uint64) {
		dp, eng, hosts, _ := buildLine(t)
		var got []Delivery
		if err := dp.ConfigureHost(hosts[1], HostConfig{CapacityPerSec: 50_000, MaxQueue: 4},
			func(d Delivery) { got = append(got, d) }); err != nil {
			t.Fatal(err)
		}
		sch, err := space.UniformSchema(2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			ev, err := sch.NewEvent(uint32(i*30), uint32(i))
			if err != nil {
				t.Fatal(err)
			}
			at := time.Duration(i/3) * 7 * time.Microsecond
			if scheduled {
				if err := dp.PublishAt(at, hosts[0], "1", ev, 64); err != nil {
					t.Fatal(err)
				}
				continue
			}
			eng.AtEvent(at, handlerFunc(func(sim.Event) {
				if err := dp.Publish(hosts[0], "1", ev, 64); err != nil {
					t.Error(err)
				}
			}), sim.Event{})
		}
		end := eng.Run()
		return got, end, dp.HostDropped(hosts[1])
	}
	want, wantEnd, wantDrops := run(false)
	got, gotEnd, gotDrops := run(true)
	if wantDrops == 0 {
		t.Fatal("scenario too tame: the host dropped nothing")
	}
	if gotEnd != wantEnd || gotDrops != wantDrops || len(got) != len(want) {
		t.Fatalf("PublishAt: end %v, %d delivered, %d dropped; at the instant: end %v, %d delivered, %d dropped",
			gotEnd, len(got), gotDrops, wantEnd, len(want), wantDrops)
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.At != b.At || a.Packet.Seq != b.Packet.Seq || a.Packet.SentAt != b.Packet.SentAt ||
			a.Packet.Event.Values[0] != b.Packet.Event.Values[0] {
			t.Fatalf("delivery %d differs:\nat the instant %+v\nPublishAt      %+v", i, a, b)
		}
	}
}

// TestPublishAtRefusesUpFront: everything that would make a publish fail
// is checked when it is scheduled — an expression no key can hold, a node
// that is no host — and a refused publish schedules nothing.
func TestPublishAtRefusesUpFront(t *testing.T) {
	dp, eng, hosts, switches := buildLine(t)
	if err := dp.PublishAt(time.Millisecond, hosts[0], "1", space.Event{}, 64); err != nil {
		t.Fatal(err)
	}
	before := eng.Pending()
	long := dz.Expr(strings.Repeat("1", dz.MaxKeyBits+1))
	if err := dp.PublishAt(time.Millisecond, hosts[0], long, space.Event{}, 64); err == nil {
		t.Errorf("PublishAt of a %d-bit expression succeeded", len(long))
	}
	if err := dp.PublishAt(time.Millisecond, switches[0], "1", space.Event{}, 64); err == nil {
		t.Error("PublishAt from a switch succeeded")
	}
	if n := eng.Pending(); n != before {
		t.Errorf("refused publishes changed the queue from %d to %d events", before, n)
	}
}

// key1 is the packed form of the fixtures' dz "1".
var key1, _ = dz.KeyOf("1")

// TestPublishBatchValidation: a batch carries keys, which cannot be
// malformed; an expression can, and the expression entry point refuses a bad
// or over-long one before any packet is injected or sequence number
// consumed.
func TestPublishBatchValidation(t *testing.T) {
	dp, eng, hosts, _ := buildLine(t)
	sch, err := space.UniformSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := sch.NewEvent(1, 1)
	for _, bad := range []dz.Expr{"01x2", dz.Expr(strings.Repeat("1", dz.MaxKeyBits+1))} {
		if err := dp.Publish(hosts[0], bad, ev, 64); err == nil {
			t.Fatalf("publishing %q must fail", bad)
		}
	}
	if eng.Pending() != 0 {
		t.Errorf("failed publishes injected %d events", eng.Pending())
	}
	var seqs []uint64
	if err := dp.ConfigureHost(hosts[1], HostConfig{}, func(d Delivery) { seqs = append(seqs, d.Packet.Seq) }); err != nil {
		t.Fatal(err)
	}
	if err := dp.PublishBatch(hosts[0], []Publication{{Key: key1, Event: ev}}); err != nil {
		t.Fatal(err)
	}
	if err := dp.Publish(hosts[0], "1", ev, 64); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if fmt.Sprint(seqs) != "[1 2]" {
		t.Errorf("sequence numbers after failed publishes: %v, want [1 2]", seqs)
	}
}

// forwardingLine builds the bare forwarding fixture of the benchmarks: a
// line of n switches between two hosts, one flow per switch carrying dz "1"
// from the first host to the second, no facade, no matching. It returns a
// packet ready for SendFromHost on hosts[0].
func forwardingLine(tb testing.TB, n int) (*DataPlane, *sim.Engine, []topo.NodeID, Packet) {
	tb.Helper()
	g, err := topo.Linear(n, topo.DefaultLinkParams)
	if err != nil {
		tb.Fatal(err)
	}
	eng := sim.NewEngine()
	dp := New(g, eng)
	hosts := g.Hosts()
	path, err := g.ShortestPath(hosts[0], hosts[1])
	if err != nil {
		tb.Fatal(err)
	}
	hops, err := g.RouteHops(path)
	if err != nil {
		tb.Fatal(err)
	}
	for _, hop := range hops {
		f, err := openflow.NewFlow("1", 1, openflow.Action{OutPort: hop.OutPort})
		if err != nil {
			tb.Fatal(err)
		}
		tab, err := dp.Table(hop.Switch)
		if err != nil {
			tb.Fatal(err)
		}
		tab.Add(f)
	}
	if err := dp.ConfigureHost(hosts[1], HostConfig{}, nil); err != nil {
		tb.Fatal(err)
	}
	sch, err := space.UniformSchema(2)
	if err != nil {
		tb.Fatal(err)
	}
	ev, _ := sch.NewEvent(600, 5)
	addr, err := ipmc.EventAddr("1")
	if err != nil {
		tb.Fatal(err)
	}
	return dp, eng, hosts, Packet{Dst: addr, Expr: "1", Event: ev, Publisher: hosts[0],
		SizeBytes: DefaultPacketSize, HopLimit: DefaultHopLimit}
}

// BenchmarkDataPlaneForward measures the pure forwarding hot path — one
// publish through three switch hops to one host per iteration — on the
// compiled plan, with one packet in flight (the engine's queue is all but
// empty). Steady state must be 0 allocs/op.
func BenchmarkDataPlaneForward(b *testing.B) {
	dp, eng, hosts, pkt := forwardingLine(b, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.Seq = uint64(i)
		if err := dp.SendFromHost(hosts[0], pkt); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
	if dp.HostReceived(hosts[1]) == 0 {
		b.Fatal("no deliveries")
	}
}

// forwardBurst is the loaded counterpart's unit of work: 1024 packets
// injected at one instant and drained, so about two thousand events are
// queued while each is forwarded — the state the daemon's pipelined publish
// path keeps the engine in.
const forwardBurst = 1024

func runForwardBurst(tb testing.TB, dp *DataPlane, eng *sim.Engine, host topo.NodeID, pkt Packet) {
	for j := 0; j < forwardBurst; j++ {
		pkt.Seq++
		if err := dp.SendFromHost(host, pkt); err != nil {
			tb.Fatal(err)
		}
	}
	eng.Run()
}

// BenchmarkDataPlaneForwardBurst measures forwarding under load: one op is
// one packet through five switch hops with 1023 others in flight. It is
// the in-tree number for what a queued hop costs (two engine events, no
// packet copy); TestForwardBurstDoesNotAllocate pins its 0 allocs/op.
func BenchmarkDataPlaneForwardBurst(b *testing.B) {
	dp, eng, hosts, pkt := forwardingLine(b, 5)
	runForwardBurst(b, dp, eng, hosts[0], pkt) // warm slab, queue and link rings
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += forwardBurst {
		runForwardBurst(b, dp, eng, hosts[0], pkt)
	}
	if dp.HostReceived(hosts[1]) == 0 {
		b.Fatal("no deliveries")
	}
}

// TestForwardBurstDoesNotAllocate pins the loaded forwarding path at zero
// allocations once slab, event queue and link departure rings are warm.
func TestForwardBurstDoesNotAllocate(t *testing.T) {
	dp, eng, hosts, pkt := forwardingLine(t, 5)
	runForwardBurst(t, dp, eng, hosts[0], pkt)
	allocs := testing.AllocsPerRun(5, func() { runForwardBurst(t, dp, eng, hosts[0], pkt) })
	if allocs != 0 {
		t.Errorf("a burst of %d packets allocates %.0f times, want 0", forwardBurst, allocs)
	}
	if got, want := dp.HostReceived(hosts[1]), uint64(7*forwardBurst); got != want {
		t.Errorf("delivered %d packets, want %d", got, want)
	}
}

// TestPlanRebuildOnTopologyGrowth: the compiled forwarding plan notices
// structural graph growth (new host and link after New) and recompiles, so
// traffic reaches nodes the plan has never seen.
func TestPlanRebuildOnTopologyGrowth(t *testing.T) {
	dp, eng, hosts, switches := buildLine(t)
	g := dp.Graph()
	h3 := g.AddHost("h3")
	swPort, _, err := g.Connect(switches[2], h3, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	if err := dp.ConfigureHost(h3, HostConfig{}, func(Delivery) { got++ }); err != nil {
		t.Fatal(err)
	}
	tab, err := dp.Table(switches[2])
	if err != nil {
		t.Fatal(err)
	}
	flows := tab.Flows()
	if len(flows) != 1 {
		t.Fatalf("expected 1 flow on last switch, got %d", len(flows))
	}
	actions := append(append([]openflow.Action(nil), flows[0].Actions...),
		openflow.Action{OutPort: swPort, SetDest: HostAddr(h3)})
	if err := tab.Modify(flows[0].ID, flows[0].Priority, actions); err != nil {
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
	if got != 1 {
		t.Errorf("new host got %d deliveries, want 1", got)
	}
	if dp.HostReceived(hosts[1]) != 1 {
		t.Errorf("original host received=%d, want 1", dp.HostReceived(hosts[1]))
	}
}
