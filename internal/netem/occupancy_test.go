package netem

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pleroma/internal/ipmc"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/sim/shard"
	"pleroma/internal/space"
	"pleroma/internal/topo"
)

// Link occupancy differential. The data plane keeps no "link free" events:
// a direction remembers the (depart, seq) keys its queued packets leave at
// and asks the engine whether it has passed them. refPlane is the model it
// must be indistinguishable from — the same forwarding written the plain
// way, every hop an event on its own engine and every accepted packet
// scheduling an explicit event that decrements the direction's queue
// counter at its departure instant.

type refDir struct {
	params topo.LinkParams
	from   topo.NodeID
	to     topo.NodeID

	busyUntil time.Duration
	queued    int
	packets   uint64
	dropped   uint64
}

type refPkt struct {
	pub  topo.NodeID
	seq  uint64
	size int
}

// occRec is one delivery as both planes log it.
type occRec struct {
	host topo.NodeID
	pub  topo.NodeID
	seq  uint64
	at   time.Duration
}

type refPlane struct {
	eng    *sim.Engine
	isHost map[topo.NodeID]bool
	dirs   map[[2]topo.NodeID]*refDir    // (from, to)
	fanout map[topo.NodeID][]topo.NodeID // switch -> out peers, in action order
	lookup map[topo.NodeID]time.Duration // switch -> lookup delay
	access map[topo.NodeID]topo.NodeID   // host -> its switch
	pubSeq map[topo.NodeID]uint64
	log    []occRec
	// real is set by every event except the link-free ones, so the
	// driver can step the reference one forwarding event at a time.
	real bool
	// hops holds the payload of every scheduled event.
	hops sim.Slots[refHop]
}

// The reference's event kinds: a direction's queue frees a place, a packet
// arrives at a node, a switch's lookup completes.
const (
	refFree uint8 = iota
	refArrive
	refLookup
)

// refHop is the payload of one reference event.
type refHop struct {
	d    *refDir     // refFree, refArrive
	node topo.NodeID // refLookup: the switch
	from topo.NodeID // refLookup: where the packet came from
	p    refPkt
}

func (r *refPlane) HandleEvent(ev sim.Event) {
	h := r.hops.Take(ev.Ref)
	switch ev.Kind {
	case refFree:
		h.d.queued--
	case refArrive:
		r.real = true
		r.arrive(h.d.to, h.d.from, h.p)
	case refLookup:
		r.real = true
		for _, peer := range r.fanout[h.node] {
			if peer == h.from && !r.isHost[peer] {
				continue // split horizon on trunks
			}
			r.transmit(r.dirs[[2]topo.NodeID{h.node, peer}], h.p)
		}
	}
}

func (r *refPlane) publish(host topo.NodeID, size int) {
	r.pubSeq[host]++
	r.transmit(r.dirs[[2]topo.NodeID{host, r.access[host]}], refPkt{pub: host, seq: r.pubSeq[host], size: size})
}

func (r *refPlane) transmit(d *refDir, p refPkt) {
	if q := d.params.QueuePackets; q > 0 && d.queued >= q {
		d.dropped++
		return
	}
	var ser time.Duration
	if bw := d.params.BandwidthBps; bw > 0 {
		ser = time.Duration(int64(p.size) * 8 * int64(time.Second) / bw)
	}
	depart := r.eng.Now()
	if d.busyUntil > depart {
		depart = d.busyUntil
	}
	depart += ser
	d.busyUntil = depart
	d.queued++
	d.packets++
	r.eng.AtEvent(depart, r, sim.Event{Kind: refFree, Ref: r.hops.Put(refHop{d: d})})
	r.eng.AtEvent(depart+d.params.Latency, r, sim.Event{Kind: refArrive, Ref: r.hops.Put(refHop{d: d, p: p})})
}

func (r *refPlane) arrive(node, from topo.NodeID, p refPkt) {
	if r.isHost[node] {
		r.log = append(r.log, occRec{host: node, pub: p.pub, seq: p.seq, at: r.eng.Now()})
		return
	}
	r.eng.ScheduleEvent(r.lookup[node], r, sim.Event{Kind: refLookup, Ref: r.hops.Put(refHop{node: node, from: from, p: p})})
}

// step executes one forwarding event — and the link-free events ordered
// before it — or, when none is left, every remaining link-free event. It
// is what one Engine.Step of the data plane's engine amounts to.
func (r *refPlane) step() bool {
	r.real = false
	for r.eng.Step() {
		if r.real {
			return true
		}
	}
	return false
}

// occupancyWorld is the seeded scenario both planes run: two switches with
// a trunk, three publishers and two receivers, every switch flooding dz "1"
// to all its neighbours but the publishers, so the trunk and the receiver
// links see fan-in from several sources and S1 fans out.
//
//	p0, p1, s1 — S1 ══ S2 — p2, s0
func occupancyWorld(t *testing.T, r *rand.Rand) (*DataPlane, *refPlane, []topo.NodeID, *[]occRec) {
	t.Helper()
	latencies := []time.Duration{0, 0, time.Microsecond, 3 * time.Microsecond}
	// 64-byte packets: unlimited, 1 µs and 2 µs of serialization.
	bandwidths := []int64{0, 0, 512_000_000, 256_000_000}
	params := func() topo.LinkParams {
		return topo.LinkParams{
			Latency:      latencies[r.Intn(len(latencies))],
			BandwidthBps: bandwidths[r.Intn(len(bandwidths))],
			QueuePackets: 1 + r.Intn(6),
		}
	}
	g := topo.NewGraph()
	s1, s2 := g.AddSwitch("S1"), g.AddSwitch("S2")
	p0, p1, p2 := g.AddHost("p0"), g.AddHost("p1"), g.AddHost("p2")
	r0, r1 := g.AddHost("s0"), g.AddHost("s1")
	ref := &refPlane{
		eng:    sim.NewEngine(),
		isHost: map[topo.NodeID]bool{p0: true, p1: true, p2: true, r0: true, r1: true},
		dirs:   make(map[[2]topo.NodeID]*refDir),
		fanout: map[topo.NodeID][]topo.NodeID{s1: {s2, r1}, s2: {r0, s1}},
		lookup: make(map[topo.NodeID]time.Duration),
		access: map[topo.NodeID]topo.NodeID{p0: s1, p1: s1, p2: s2},
		pubSeq: make(map[topo.NodeID]uint64),
	}
	for _, pair := range [][2]topo.NodeID{{p0, s1}, {p1, s1}, {r1, s1}, {s1, s2}, {p2, s2}, {r0, s2}} {
		lp := params()
		if _, _, err := g.Connect(pair[0], pair[1], lp); err != nil {
			t.Fatal(err)
		}
		ref.dirs[[2]topo.NodeID{pair[0], pair[1]}] = &refDir{params: lp, from: pair[0], to: pair[1]}
		ref.dirs[[2]topo.NodeID{pair[1], pair[0]}] = &refDir{params: lp, from: pair[1], to: pair[0]}
	}

	dp := New(g, sim.NewEngine())
	lookups := []time.Duration{0, time.Microsecond, 2 * time.Microsecond}
	for sw, peers := range ref.fanout {
		var actions []openflow.Action
		for _, peer := range peers {
			port, ok := g.PortTowards(sw, peer)
			if !ok {
				t.Fatalf("no port from %d to %d", sw, peer)
			}
			actions = append(actions, openflow.Action{OutPort: port})
		}
		f, err := openflow.NewFlow("1", 1, actions...)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := dp.Table(sw)
		if err != nil {
			t.Fatal(err)
		}
		tab.Add(f)
	}
	for _, sw := range []topo.NodeID{s1, s2} { // fixed order: one rand stream
		ref.lookup[sw] = lookups[r.Intn(len(lookups))]
		if err := dp.SetSwitchConfig(sw, SwitchConfig{LookupDelay: ref.lookup[sw]}); err != nil {
			t.Fatal(err)
		}
	}
	log := new([]occRec)
	for _, h := range []topo.NodeID{r0, r1} {
		if err := dp.ConfigureHost(h, HostConfig{}, func(d Delivery) {
			*log = append(*log, occRec{host: d.Host, pub: d.Packet.Publisher, seq: d.Packet.Seq, at: d.At})
		}); err != nil {
			t.Fatal(err)
		}
	}
	return dp, ref, []topo.NodeID{p0, p1, p2}, log
}

// TestLinkOccupancyMatchesExplicitLinkFreeEvents replays seeded traffic over
// bounded links — queues of 1 to 6 packets, zero-latency and zero-bandwidth
// links so that departures tie with the current instant — through the data
// plane and through the reference, injecting between single steps, after
// RunUntil cuts and after full drains, and demands identical deliveries (in
// order, with timestamps) and identical per-direction packet and drop
// counts.
func TestLinkOccupancyMatchesExplicitLinkFreeEvents(t *testing.T) {
	var delivered, dropped uint64
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		dp, ref, pubs, log := occupancyWorld(t, r)
		eng := dp.Engine()
		var ev space.Event
		for op := 0; op < 400; op++ {
			switch k := r.Intn(10); {
			case k < 5: // a burst from one publisher at the current instant
				h := pubs[r.Intn(len(pubs))]
				for n := 1 + r.Intn(4); n > 0; n-- {
					if err := dp.Publish(h, "1", ev, 64); err != nil {
						t.Fatal(err)
					}
					ref.publish(h, 64)
				}
			case k < 8: // a few single steps
				for n := 1 + r.Intn(3); n > 0; n-- {
					if got, want := eng.Step(), ref.step(); got != want {
						t.Fatalf("seed %d op %d: Step = %v, reference %v", seed, op, got, want)
					}
				}
			case k < 9: // a deadline cut, often at the current instant
				deadline := eng.Now() + time.Duration(r.Intn(4))*time.Microsecond
				eng.RunUntil(deadline)
				ref.eng.RunUntil(deadline)
			default: // a full drain
				eng.Run()
				ref.eng.Run()
			}
			if eng.Now() != ref.eng.Now() {
				t.Fatalf("seed %d op %d: clock %v, reference %v", seed, op, eng.Now(), ref.eng.Now())
			}
			if len(*log) != len(ref.log) {
				t.Fatalf("seed %d op %d: %d deliveries, reference %d", seed, op, len(*log), len(ref.log))
			}
		}
		eng.Run()
		ref.eng.Run()
		if len(*log) != len(ref.log) {
			t.Fatalf("seed %d: %d deliveries, reference %d", seed, len(*log), len(ref.log))
		}
		for i, rec := range *log {
			if rec != ref.log[i] {
				t.Fatalf("seed %d: delivery %d is %+v, reference %+v", seed, i, rec, ref.log[i])
			}
		}
		for _, l := range dp.Graph().Links() {
			ls := dp.LinkStatsFor(l)
			for _, pair := range [][2]topo.NodeID{{l.A, l.B}, {l.B, l.A}} {
				d := ref.dirs[pair]
				var packets, drops uint64
				if ls != nil {
					packets, drops = ls.Packets[d.from], ls.Dropped[d.from]
				}
				if packets != d.packets || drops != d.dropped {
					t.Fatalf("seed %d: link %d->%d carried %d and dropped %d, reference %d and %d",
						seed, d.from, d.to, packets, drops, d.packets, d.dropped)
				}
				dropped += drops
			}
		}
		delivered += uint64(len(*log))
	}
	if delivered == 0 || dropped == 0 {
		t.Fatalf("scenario too tame: %d deliveries, %d drops over all seeds", delivered, dropped)
	}
}

// TestShardedDrainSettlesLinkOccupancy: a shard that only hands packets to
// another shard executes nothing during the drain that delivers them, yet
// once the drain is over its transmit queue must be as empty as if it had
// run the link-free events itself — after Run and after RunUntil alike.
func TestShardedDrainSettlesLinkOccupancy(t *testing.T) {
	for _, bounded := range []bool{false, true} {
		t.Run(fmt.Sprintf("bounded=%v", bounded), func(t *testing.T) {
			g := topo.NewGraph()
			s0, s1 := g.AddSwitch("S0"), g.AddSwitch("S1")
			h1 := g.AddHost("h1")
			// The trunk takes 1 ms to serialize a packet and queues two.
			trunk := topo.LinkParams{Latency: 50 * time.Microsecond, BandwidthBps: 64 * 8 * 1000, QueuePackets: 2}
			out, _, err := g.Connect(s0, s1, trunk)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := g.Connect(s1, h1, topo.DefaultLinkParams); err != nil {
				t.Fatal(err)
			}
			coord, err := shard.New(2, trunk.Latency)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			dp := New(g, coord.Engine(0))
			assign := make([]int32, g.NumNodes())
			assign[s1], assign[h1] = 1, 1
			if err := dp.EnableSharding(coord, assign); err != nil {
				t.Fatal(err)
			}
			port, _ := g.PortTowards(s1, h1)
			f, err := openflow.NewFlow("1", 1, openflow.Action{OutPort: port})
			if err != nil {
				t.Fatal(err)
			}
			tab, _ := dp.Table(s1)
			tab.Add(f)
			addr, err := ipmc.EventAddr("1")
			if err != nil {
				t.Fatal(err)
			}
			// Packet-outs from S0 fill the trunk queue between drains; shard
			// 0 never has an event of its own to execute.
			for round := 1; round <= 3; round++ {
				for i := 0; i < 2; i++ {
					if err := dp.SendFromSwitchPort(s0, out, Packet{Dst: addr}); err != nil {
						t.Fatal(err)
					}
				}
				if bounded {
					dp.RunUntil(time.Duration(round) * 10 * time.Millisecond)
				} else {
					dp.Run()
				}
				if got := dp.HostReceived(h1); got != uint64(2*round) {
					link, _ := g.LinkBetween(s0, s1)
					t.Fatalf("round %d: %d packets delivered, want %d (trunk stats %+v)",
						round, got, 2*round, dp.LinkStatsFor(link))
				}
			}
		})
	}
}

// TestFailedPublishKeepsSequence: a publish the data plane cannot inject —
// the host has no access link yet, or a sharded drain is in flight — must
// not consume a sequence number, so Publish × n stays PublishBatch(n) with
// failures in between.
func TestFailedPublishKeepsSequence(t *testing.T) {
	var ev space.Event
	run := func(batch bool) []uint64 {
		g, err := topo.Linear(1, topo.DefaultLinkParams)
		if err != nil {
			t.Fatal(err)
		}
		sw, sub := g.Switches()[0], g.Hosts()[1]
		late := g.AddHost("late") // no link yet
		eng := sim.NewEngine()
		dp := New(g, eng)
		port, _ := g.PortTowards(sw, sub)
		f, err := openflow.NewFlow("1", 1, openflow.Action{OutPort: port})
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := dp.Table(sw)
		tab.Add(f)
		var seqs []uint64
		if err := dp.ConfigureHost(sub, HostConfig{}, func(d Delivery) { seqs = append(seqs, d.Packet.Seq) }); err != nil {
			t.Fatal(err)
		}
		pubs := []Publication{{Key: key1, Event: ev}, {Key: key1, Event: ev}, {Key: key1, Event: ev}}
		publish := func() error {
			if batch {
				return dp.PublishBatch(late, pubs)
			}
			for _, pb := range pubs {
				if err := dp.Publish(late, "1", pb.Event, pb.Size); err != nil {
					return err
				}
			}
			return nil
		}
		if err := publish(); err == nil {
			t.Fatal("publish from a host without an access link must fail")
		}
		if _, _, err := g.Connect(late, sw, topo.DefaultLinkParams); err != nil {
			t.Fatal(err)
		}
		if err := publish(); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return seqs
	}
	seq, bat := run(false), run(true)
	want := []uint64{1, 2, 3}
	if fmt.Sprint(seq) != fmt.Sprint(want) || fmt.Sprint(bat) != fmt.Sprint(want) {
		t.Fatalf("sequence numbers after a failed publish: Publish %v, PublishBatch %v, want %v", seq, bat, want)
	}

	// The other way to fail: injecting from a delivery callback while a
	// sharded drain is in flight.
	g, err := topo.Linear(2, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := shard.New(2, topo.DefaultLinkParams.Latency)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	dp := New(g, coord.Engine(0))
	hosts, sws := g.Hosts(), g.Switches()
	assign := make([]int32, g.NumNodes())
	assign[sws[1]], assign[hosts[1]] = 1, 1
	if err := dp.EnableSharding(coord, assign); err != nil {
		t.Fatal(err)
	}
	for i, next := range []topo.NodeID{sws[1], hosts[1]} {
		port, _ := g.PortTowards(sws[i], next)
		f, err := openflow.NewFlow("1", 1, openflow.Action{OutPort: port})
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := dp.Table(sws[i])
		tab.Add(f)
	}
	var seqs []uint64
	var midRun error
	if err := dp.ConfigureHost(hosts[1], HostConfig{}, func(d Delivery) {
		seqs = append(seqs, d.Packet.Seq)
		midRun = dp.Publish(hosts[0], "1", ev, 64)
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := dp.Publish(hosts[0], "1", ev, 64); err != nil {
			t.Fatal(err)
		}
		dp.Run()
	}
	if midRun == nil {
		t.Fatal("publishing during a sharded drain must fail")
	}
	if fmt.Sprint(seqs) != fmt.Sprint([]uint64{1, 2}) {
		t.Fatalf("sequence numbers around a rejected mid-run publish: %v, want [1 2]", seqs)
	}
}
