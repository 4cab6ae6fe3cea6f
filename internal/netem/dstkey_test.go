package netem

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"unsafe"

	"pleroma/internal/dz"
	"pleroma/internal/ipmc"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/sim/shard"
	"pleroma/internal/topo"
)

// dstkey_test.go holds the coherence rule of Packet.dstKey: Dst is what a
// switch matches, the key is its memo, and it is repacked in each of the
// three places Dst is written. Every test here fails if one of them keeps a
// stale key.

// lineOf builds h1 - R1 … Rn - h2 with empty tables and returns, besides the
// usual handles, the out-port of each switch towards h2.
func lineOf(t *testing.T, n int) (*DataPlane, *sim.Engine, []topo.NodeID, []topo.NodeID, []openflow.PortID) {
	t.Helper()
	g, err := topo.Linear(n, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	dp := New(g, eng)
	hosts := g.Hosts()
	path, err := g.ShortestPath(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	hops, err := g.RouteHops(path)
	if err != nil {
		t.Fatal(err)
	}
	ports := make([]openflow.PortID, len(hops))
	for i, hop := range hops {
		ports[i] = hop.OutPort
	}
	return dp, eng, hosts, g.Switches(), ports
}

func install(t *testing.T, dp *DataPlane, sw topo.NodeID, expr dz.Expr, actions ...openflow.Action) {
	t.Helper()
	f, err := openflow.NewFlow(expr, expr.Len(), actions...)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := dp.Table(sw)
	if err != nil {
		t.Fatal(err)
	}
	tab.Add(f)
}

func eventAddr(t *testing.T, e dz.Expr) netip.Addr {
	t.Helper()
	addr, err := ipmc.EventAddr(e)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestSetDestRewriteIsWhatTheNextSwitchMatches: a SetDest on a switch that is
// not the last rewrites the header, and the next switch matches the
// rewritten address — another dz address is looked up by its own bits, a
// non-dz address by none — never the key the packet was published with.
func TestSetDestRewriteIsWhatTheNextSwitchMatches(t *testing.T) {
	hostAddr := netip.MustParseAddr("fd00::2")
	t.Run("to another dz address", func(t *testing.T) {
		dp, eng, hosts, sws, ports := lineOf(t, 3)
		install(t, dp, sws[0], "1", openflow.Action{OutPort: ports[0], SetDest: eventAddr(t, "0110")})
		install(t, dp, sws[1], "01", openflow.Action{OutPort: ports[1]}) // nothing here matches "1"
		install(t, dp, sws[2], "0110", openflow.Action{OutPort: ports[2], SetDest: hostAddr})
		var got []Delivery
		if err := dp.ConfigureHost(hosts[1], HostConfig{}, func(d Delivery) { got = append(got, d) }); err != nil {
			t.Fatal(err)
		}
		if err := dp.PublishBatch(hosts[0], []Publication{{Key: key1}}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if len(got) != 1 {
			t.Fatalf("%d deliveries, want 1 (R2 %+v, R3 %+v)", len(got), dp.SwitchStatsFor(sws[1]), dp.SwitchStatsFor(sws[2]))
		}
		if p := got[0].Packet; p.Dst != hostAddr || p.Hops != 3 || p.Key != key1 {
			t.Errorf("delivered Dst %v after %d hops with event key %q, want %v, 3, %q", p.Dst, p.Hops, p.Key.Expr(), hostAddr, "1")
		}
		for _, sw := range sws {
			if st := dp.SwitchStatsFor(sw); st.TableMisses != 0 || st.Forwarded != 1 {
				t.Errorf("switch %d: %+v, want one forward and no miss", sw, st)
			}
		}
	})
	t.Run("to a non-dz address", func(t *testing.T) {
		dp, eng, hosts, sws, ports := lineOf(t, 3)
		install(t, dp, sws[0], "1", openflow.Action{OutPort: ports[0], SetDest: hostAddr})
		install(t, dp, sws[1], "1", openflow.Action{OutPort: ports[1]}) // would match the published key
		install(t, dp, sws[2], "1", openflow.Action{OutPort: ports[2]})
		if err := dp.PublishBatch(hosts[0], []Publication{{Key: key1}}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if st := dp.SwitchStatsFor(sws[1]); st.TableMisses != 1 || st.Forwarded != 0 {
			t.Errorf("R2 saw %+v, want a table miss: the header no longer carries a dz", st)
		}
		if n := dp.HostReceived(hosts[1]); n != 0 {
			t.Errorf("%d packets delivered past the miss", n)
		}
	})
}

// TestInjectedPacketIsLookedUpByItsDst: a packet handed to SendFromHost or
// SendFromSwitchPort is matched on the Dst it carries — with no Key and no
// Expr it forwards as a published one does, with a non-dz Dst it is a table
// miss and a punt, and whatever lookup key it arrives with (a delivered
// packet sent on again) is discarded for the key of its Dst.
func TestInjectedPacketIsLookedUpByItsDst(t *testing.T) {
	dp, eng, hosts, sws := buildLine(t)
	var got []Delivery
	if err := dp.ConfigureHost(hosts[1], HostConfig{}, func(d Delivery) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	var punted []Packet
	dp.SetPuntHandler(func(_ topo.NodeID, _ openflow.PortID, pkt Packet) { punted = append(punted, pkt) })
	addr1 := eventAddr(t, "1")
	out, _ := dp.Graph().PortTowards(sws[0], sws[1])

	if err := dp.SendFromHost(hosts[0], Packet{Dst: addr1, HopLimit: DefaultHopLimit, SizeBytes: DefaultPacketSize, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := dp.SendFromSwitchPort(sws[0], out, Packet{Dst: addr1, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// The packet-out starts one switch further on and lands first.
	if len(got) != 2 || got[0].Packet.Seq != 2 || got[0].Packet.Hops != 2 || got[1].Packet.Hops != 3 || len(punted) != 0 {
		t.Fatalf("Dst-only packets: %d delivered (%+v), %d punted; want the packet-out after 2 hops, then the host's after 3", len(got), got, len(punted))
	}

	// Non-dz destinations, one of them wearing a lookup key that would match.
	for i, dst := range []netip.Addr{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("fd00::9")} {
		before := dp.SwitchStatsFor(sws[0])
		pkt := Packet{Dst: dst, dstKey: ipmc.PadKey(key1), HopLimit: DefaultHopLimit, SizeBytes: DefaultPacketSize}
		if err := dp.SendFromHost(hosts[0], pkt); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		after := dp.SwitchStatsFor(sws[0])
		if after.TableMisses != before.TableMisses+1 || after.Punted != before.Punted+1 || after.Forwarded != before.Forwarded {
			t.Errorf("Dst %v: first switch went %+v → %+v, want one more miss and punt", dst, before, after)
		}
		if len(punted) != i+1 || punted[i].Dst != dst {
			t.Errorf("Dst %v: punt handler saw %+v", dst, punted)
		}
	}
	if len(got) != 2 {
		t.Fatalf("a non-dz packet was delivered: %+v", got)
	}

	// A delivered packet — terminal rewrite, so no lookup key — readdressed
	// to the event address and sent again forwards on the new Dst.
	again := got[0].Packet
	if _, isDz := ipmc.KeyFromAddr(again.Dst); isDz {
		t.Fatalf("fixture: delivered Dst %v is still a dz address", again.Dst)
	}
	again.Dst, again.HopLimit, again.Hops = addr1, DefaultHopLimit, 0
	if err := dp.SendFromHost(hosts[0], again); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 3 || got[2].Packet.Hops != 3 {
		t.Fatalf("re-sent delivered packet: %d deliveries, want a third after 3 hops", len(got))
	}
}

// TestShortDzMatchesLongerFlow: the address zero-pads a dz, and a switch
// matches the padded address as a TCAM does — an event whose dz is "1"
// matches a flow for "100", published or hand-injected alike, and one whose
// dz is "11" does not.
func TestShortDzMatchesLongerFlow(t *testing.T) {
	dp, eng, hosts, sws, ports := lineOf(t, 2)
	install(t, dp, sws[0], "100", openflow.Action{OutPort: ports[0]})
	install(t, dp, sws[1], "100", openflow.Action{OutPort: ports[1]})
	if err := dp.ConfigureHost(hosts[1], HostConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	key11, _ := dz.KeyOf("11")
	if err := dp.PublishBatch(hosts[0], []Publication{{Key: key1}, {Key: key11}}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []dz.Expr{"1", "11"} {
		pkt := Packet{Dst: eventAddr(t, e), Expr: e, HopLimit: DefaultHopLimit, SizeBytes: DefaultPacketSize}
		if err := dp.SendFromHost(hosts[0], pkt); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if n := dp.HostReceived(hosts[1]); n != 2 {
		t.Errorf("%d packets delivered, want the two whose dz is \"1\"", n)
	}
	if st := dp.SwitchStatsFor(sws[0]); st.Forwarded != 2 || st.TableMisses != 2 {
		t.Errorf("first switch %+v, want 2 forwarded (dz 1) and 2 misses (dz 11)", st)
	}
}

// TestLookupKeyCrossesShardMailbox: the same burst — three dz values, one of
// them readdressed to another dz address on the last switch before the shard
// boundary — delivers the same (host, seq, hops, at) set whether the hops
// run on one engine or the packets cross a mailbox by value mid-path.
func TestLookupKeyCrossesShardMailbox(t *testing.T) {
	run := func(sharded bool) []string {
		g, err := topo.Linear(4, topo.DefaultLinkParams)
		if err != nil {
			t.Fatal(err)
		}
		hosts, sws := g.Hosts(), g.Switches()
		var dp *DataPlane
		if sharded {
			coord, err := shard.New(2, topo.DefaultLinkParams.Latency)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			dp = New(g, coord.Engine(0))
			assign := make([]int32, g.NumNodes())
			assign[sws[2]], assign[sws[3]], assign[hosts[1]] = 1, 1, 1
			if err := dp.EnableSharding(coord, assign); err != nil {
				t.Fatal(err)
			}
		} else {
			dp = New(g, sim.NewEngine())
		}
		next := append(slices.Clone(sws[1:]), hosts[1])
		port := func(i int) openflow.PortID {
			p, ok := g.PortTowards(sws[i], next[i])
			if !ok {
				t.Fatalf("no port from switch %d towards %d", sws[i], next[i])
			}
			return p
		}
		install(t, dp, sws[0], "", openflow.Action{OutPort: port(0)})
		install(t, dp, sws[1], "0", openflow.Action{OutPort: port(1)})
		install(t, dp, sws[1], "1", openflow.Action{OutPort: port(1), SetDest: eventAddr(t, "0110")})
		install(t, dp, sws[2], "0110", openflow.Action{OutPort: port(2)}) // "1" arrives readdressed
		install(t, dp, sws[2], "00", openflow.Action{OutPort: port(2)})
		install(t, dp, sws[3], "0", openflow.Action{OutPort: port(3), SetDest: netip.MustParseAddr("fd00::2")})
		var log []string
		if err := dp.ConfigureHost(hosts[1], HostConfig{}, func(d Delivery) {
			log = append(log, fmt.Sprintf("host %d seq %d hops %d at %v", d.Host, d.Packet.Seq, d.Packet.Hops, d.At))
		}); err != nil {
			t.Fatal(err)
		}
		var pubs []Publication
		for i := 0; i < 30; i++ {
			k, _ := dz.KeyOf([]dz.Expr{"1", "001", "0111"}[i%3]) // 0111 misses on R3 in both modes
			pubs = append(pubs, Publication{Key: k})
		}
		if err := dp.PublishBatch(hosts[0], pubs); err != nil {
			t.Fatal(err)
		}
		dp.Run()
		if st := dp.SwitchStatsFor(sws[2]); st.Forwarded != 20 || st.TableMisses != 10 {
			t.Fatalf("sharded=%v: R3 %+v, want 20 forwarded and 10 misses", sharded, st)
		}
		slices.Sort(log)
		return log
	}
	single, sharded := run(false), run(true)
	if len(single) != 20 {
		t.Fatalf("single engine delivered %d packets, want 20", len(single))
	}
	if !slices.Equal(single, sharded) {
		t.Fatalf("deliveries differ:\nsingle  %v\nsharded %v", single, sharded)
	}
}

// TestPacketSize tracks what every slab entry, multicast copy, mailbox
// message and delivery copies. The lookup key is 15 bytes; with Hops moved
// into the padding behind it the packet grew by 8, from 200.
func TestPacketSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Packet{}); got != 208 {
		t.Errorf("Packet is %d bytes, want 208: the slab's per-packet copy cost is a tracked number — move the pin only on purpose", got)
	}
}
