package main

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"pleroma"
	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/ipmc"
	"pleroma/internal/netem"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
	"pleroma/internal/transport"
	"pleroma/internal/wire"
)

// The probes time each layer's public functions in isolation, fed with the
// workload's generated inputs. They explain the end-to-end numbers; they
// are never part of them.

// probeFrame is the batch the codec and null-transport probes move at once:
// the pipelined path's default coalescing threshold.
const probeFrame = 64

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// timeLoop calls fn(i) for about d, reading the clock once per batch
// calls, and returns the mean wall time and mallocs per call.
func timeLoop(d time.Duration, batch int, fn func(i int)) (ns, allocs float64) {
	fn(0) // warm caches and lazy set-up
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, start := 0, time.Now()
	for time.Since(start) < d {
		for j := 0; j < batch; j++ {
			n++
			fn(n)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// probes collects per-layer metrics under their declared names.
type probes struct {
	d   time.Duration // time budget of one timing loop
	in  *inputs
	sz  sizes
	tmp string
	out map[string]metric
}

func (p *probes) put(name string, v float64, unit string) {
	p.out[name] = metric{Value: v, Unit: unit}
}

// runProbes runs every isolated probe. tableSize is the flow-table
// occupancy the traced run observed, which sizes the lookup probe.
func runProbes(o options, name string, tableSize int, out map[string]metric) error {
	p := &probes{d: o.window / 40, in: newInputs(o.seed, name+"/probes"), sz: o.sz, tmp: o.tmpDir, out: out}
	for _, probe := range []func() error{
		p.wire, p.transport, p.content, p.sim, p.netem,
		func() error { return p.openflow(tableSize) },
		p.unicast, p.facadeControl, p.core, p.journals,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// wire: the publish and delivery codecs on 64-event frames of the
// workload's 2-attribute events, and on 8-attribute events for contrast.
func (p *probes) wire() error {
	for _, attrs := range []int{2, 8} {
		suffix := ""
		if attrs == 8 {
			suffix = "_8attr"
		}
		req := wire.PublishReq{ID: "p", Seq: 1, Events: make([]space.Event, probeFrame)}
		ds := make([]wire.Delivery, probeFrame)
		for i := range req.Events {
			vals := make([]uint32, attrs)
			_, evs := p.in.events(attrs / 2)
			for j, ev := range evs {
				vals[2*j], vals[2*j+1] = ev[0], ev[1]
			}
			req.Events[i] = space.Event{Values: vals}
			ds[i] = wire.Delivery{SubscriptionID: "s", Event: req.Events[i], At: time.Millisecond, Latency: time.Microsecond}
		}
		buf := make([]byte, 0, 1<<16)
		var err error
		ns, _ := timeLoop(p.d, 32, func(i int) {
			req.Seq = uint64(i + 1)
			buf, err = wire.AppendPublish(buf[:0], req)
		})
		if err != nil {
			return err
		}
		p.put("wire.publish_encode_ns_per_event"+suffix, ns/probeFrame, "ns")
		pubBytes := len(buf)
		ns, allocs := timeLoop(p.d, 32, func(int) {
			var got wire.PublishReq
			got, err = wire.DecodePublish(buf)
			sink += len(got.Events)
		})
		if err != nil {
			return err
		}
		p.put("wire.publish_decode_ns_per_event"+suffix, ns/probeFrame, "ns")
		if attrs != 2 {
			continue
		}
		p.put("wire.publish_decode_allocs_per_event", allocs/probeFrame, "count")
		ns, _ = timeLoop(p.d, 32, func(int) {
			buf, _, err = wire.AppendDeliverBatch(buf[:0], ds, wire.MaxFramePayload)
		})
		if err != nil {
			return err
		}
		p.put("wire.deliver_encode_ns_per_delivery", ns/probeFrame, "ns")
		p.put("wire.bytes_per_event", float64(pubBytes+len(buf))/probeFrame, "B")
		ns, _ = timeLoop(p.d, 32, func(int) {
			var got []wire.Delivery
			got, err = wire.DecodeDeliverBatch(buf)
			sink += len(got)
		})
		if err != nil {
			return err
		}
		p.put("wire.deliver_decode_ns_per_delivery", ns/probeFrame, "ns")
	}
	return nil
}

// nullBackend is a transport.Backend that does no pub/sub work: Publish
// queues the events and Run hands each to the subscription's sink, so a
// client/server pair over loopback measures the transport alone.
type nullBackend struct {
	deliver func(wire.Delivery)
	pending []space.Event
}

func (b *nullBackend) Info() transport.Info { return transport.Info{Hosts: []uint32{0}} }

func (b *nullBackend) Control(req wire.ControlReq, deliver func(wire.Delivery)) error {
	if req.Op == "subscribe" {
		b.deliver = deliver
	}
	return nil
}

func (b *nullBackend) Publish(req wire.PublishReq) error {
	// Decoded events alias the connection's read arena: copy them.
	for _, ev := range req.Events {
		b.pending = append(b.pending, space.Event{Values: append([]uint32(nil), ev.Values...)})
	}
	return nil
}

func (b *nullBackend) Run() (time.Duration, error) {
	for _, ev := range b.pending {
		b.deliver(wire.Delivery{SubscriptionID: "s", Event: ev})
	}
	b.pending = b.pending[:0]
	return 0, nil
}

func (b *nullBackend) Digest() ([]byte, error) { return nil, nil }

func (b *nullBackend) ApplyFlowBatch(uint32, []openflow.FlowOp) ([]openflow.FlowID, error) {
	return nil, fmt.Errorf("null backend has no switches")
}

func (b *nullBackend) Flows(uint32) ([]openflow.Flow, error) {
	return nil, fmt.Errorf("null backend has no switches")
}

// transport: the pipelined loop and the blocking round trip of the TCP
// workloads against the null backend — their floor.
func (p *probes) transport() error {
	srv := transport.NewServer(&nullBackend{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Stop()
	c, err := transport.Dial(addr.String())
	if err != nil {
		return err
	}
	defer c.Close()
	var arrived atomic.Int64 // the handler runs on the client's reader goroutine
	if err := c.Subscribe("s", 0, nil, func(wire.Delivery) { arrived.Add(1) }); err != nil {
		return err
	}
	if err := c.Advertise("p", 0, nil); err != nil {
		return err
	}
	var pubTime, delTime time.Duration
	ev := make([]space.Event, 1)
	_, allocs := timeLoop(4*p.d, 1, func(int) {
		_, evs := p.in.events(pipeChunk)
		t0 := time.Now()
		for _, vals := range evs {
			ev[0].Values = vals
			if e := c.PublishAsync("p", ev); e != nil {
				err = e
			}
		}
		if e := c.Flush(); e != nil {
			err = e
		}
		t1 := time.Now()
		if _, e := c.Run(); e != nil {
			err = e
		}
		if e := c.Sync(); e != nil {
			err = e
		}
		pubTime += t1.Sub(t0)
		delTime += time.Since(t1)
	})
	if err != nil {
		return err
	}
	delivered := arrived.Load()
	if delivered == 0 || delivered%pipeChunk != 0 {
		return fmt.Errorf("null transport delivered %d events, want a multiple of %d", delivered, pipeChunk)
	}
	p.put("transport.null_publish_ns_per_event", float64(pubTime)/float64(delivered), "ns")
	p.put("transport.null_deliver_ns_per_delivery", float64(delTime)/float64(delivered), "ns")
	p.put("transport.null_allocs_per_event", allocs/pipeChunk, "count")
	ns, _ := timeLoop(4*p.d, 1, func(int) {
		_, evs := p.in.events(1)
		ev[0].Values = evs[0]
		if e := c.Publish("p", ev); e != nil {
			err = e
		}
	})
	p.put("transport.null_rtt_us", ns/1e3, "us")
	return err
}

// content: event construction, dz encoding, the IPv6 embedding, the
// demultiplexer's overlap test and subscription decomposition.
func (p *probes) content() error {
	sch := benchSchema()
	var err error
	ns, _ := timeLoop(p.d, 256, func(i int) {
		var ev space.Event
		ev, err = sch.NewEvent(p.in.tuples[i%ringEvents]...)
		sink += len(ev.Values)
	})
	if err != nil {
		return err
	}
	p.put("space.new_event_ns", ns, "ns")
	maxLen := sch.Geometry().MaxLen()
	exprs := make([]dz.Expr, 1024)
	ns, _ = timeLoop(p.d, 256, func(i int) {
		exprs[i%len(exprs)], err = sch.Encode(space.Event{Values: p.in.tuples[i%ringEvents]}, maxLen)
	})
	if err != nil {
		return err
	}
	p.put("space.encode_ns", ns, "ns")
	for i := range exprs { // the loop above may not have filled every slot
		if exprs[i], err = sch.Encode(space.Event{Values: p.in.tuples[i]}, maxLen); err != nil {
			return err
		}
	}
	ns, _ = timeLoop(p.d, 256, func(i int) {
		var a netip.Addr
		a, err = ipmc.EventAddr(exprs[i%len(exprs)])
		sink += a.BitLen()
	})
	if err != nil {
		return err
	}
	p.put("ipmc.event_addr_ns", ns, "ns")
	rects := make([]dz.Rect, 256)
	sets := make([]dz.Set, len(rects))
	for i := range rects {
		if rects[i], err = sch.Rect(p.in.rect().filter()); err != nil {
			return err
		}
	}
	ns, _ = timeLoop(p.d, 32, func(i int) {
		sets[i%len(sets)], err = sch.DecomposeRectLimited(rects[i%len(rects)], 24, 16)
	})
	if err != nil {
		return err
	}
	p.put("dz.decompose_us", ns/1e3, "us")
	for i := range sets {
		if sets[i], err = sch.DecomposeRectLimited(rects[i], 24, 16); err != nil {
			return err
		}
	}
	ns, _ = timeLoop(p.d, 256, func(i int) {
		if sets[i%len(sets)].Overlaps(exprs[i%len(exprs)]) {
			sink++
		}
	})
	p.put("dz.set_overlaps_ns", ns, "ns")
	return nil
}

type drain struct{ n int }

func (d *drain) HandleEvent(sim.Event) { d.n++ }

// sim: one typed event through a warm queue.
func (p *probes) sim() error {
	e, d := sim.NewEngine(), &drain{}
	for j := 0; j < 1024; j++ {
		e.ScheduleEvent(time.Duration(j%97)*time.Microsecond, d, sim.Event{Kind: 1, Ref: uint32(j)})
	}
	e.Run()
	ns, _ := timeLoop(p.d, 256, func(i int) {
		e.ScheduleEvent(time.Duration(i%97)*time.Microsecond, d, sim.Event{Kind: 1, Ref: uint32(i)})
		e.Step()
	})
	p.put("sim.schedule_run_ns_per_event", ns, "ns")
	return nil
}

// netemHops is the chain length of the forwarding probe: the hop count of
// the TCP workloads' path.
const netemHops = 5

// netem: one packet across a 5-switch chain with exact flows installed.
func (p *probes) netem() error {
	g, err := topo.Linear(netemHops, topo.DefaultLinkParams)
	if err != nil {
		return err
	}
	eng := sim.NewEngine()
	dp := netem.New(g, eng)
	hosts := g.Hosts()
	path, err := g.ShortestPath(hosts[0], hosts[1])
	if err != nil {
		return err
	}
	hops, err := g.RouteHops(path)
	if err != nil {
		return err
	}
	for _, hop := range hops {
		f, err := openflow.NewFlow("1", 1, openflow.Action{OutPort: hop.OutPort})
		if err != nil {
			return err
		}
		tab, err := dp.Table(hop.Switch)
		if err != nil {
			return err
		}
		tab.Add(f)
	}
	if err := dp.ConfigureHost(hosts[1], netem.HostConfig{}, nil); err != nil {
		return err
	}
	addr, err := ipmc.EventAddr("1")
	if err != nil {
		return err
	}
	pkt := netem.Packet{Dst: addr, Expr: "1", Event: space.Event{Values: p.in.tuples[0]}, Publisher: hosts[0],
		SizeBytes: netem.DefaultPacketSize, HopLimit: netem.DefaultHopLimit}
	ns, allocs := timeLoop(p.d, 32, func(i int) {
		pkt.Seq = uint64(i)
		if e := dp.SendFromHost(hosts[0], pkt); e != nil {
			err = e
		}
		eng.Run()
	})
	if err != nil {
		return err
	}
	if dp.HostReceived(hosts[1]) == 0 {
		return fmt.Errorf("netem probe delivered nothing")
	}
	p.put("netem.forward_ns_per_hop", ns/netemHops, "ns")
	p.put("netem.forward_allocs_per_packet", allocs, "count")
	return nil
}

// openflow: longest-prefix lookup in a table of n flows keeping the
// PLEROMA invariant priority == |dz|.
func (p *probes) openflow(n int) error {
	if n < 1 {
		n = 1
	}
	sch := benchSchema()
	maxLen := sch.Geometry().MaxLen()
	tab := openflow.NewTable()
	seen := make(map[dz.Expr]bool, n)
	for len(seen) < n {
		e, err := sch.Encode(space.Event{Values: p.in.tuples[p.in.rng.Intn(ringEvents)]}, 1+p.in.rng.Intn(maxLen))
		if err != nil {
			return err
		}
		if seen[e] {
			continue
		}
		seen[e] = true
		f, err := openflow.NewFlow(e, e.Len(), openflow.Action{OutPort: openflow.PortID(1 + p.in.rng.Intn(4))})
		if err != nil {
			return err
		}
		tab.Add(f)
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		e, err := sch.Encode(space.Event{Values: p.in.tuples[i]}, maxLen)
		if err != nil {
			return err
		}
		if addrs[i], err = ipmc.EventAddr(e); err != nil {
			return err
		}
	}
	ns, _ := timeLoop(p.d, 256, func(i int) {
		if _, ok := tab.Lookup(addrs[i%len(addrs)]); ok {
			sink++
		}
	})
	p.put("openflow.lookup_ns", ns, "ns")
	return nil
}

// unicast: the tcp-pipe deployment without sockets — the backend's share
// of that workload. Events enter in 64-event batches, as the server
// applies coalesced publish frames.
func (p *probes) unicast() error {
	w := &base{}
	if err := w.deploy(); err != nil {
		return err
	}
	defer w.close()
	hosts := w.sys.Hosts()
	pub, err := w.sys.NewPublisher("p", hosts[0])
	if err != nil {
		return err
	}
	if err := pub.Advertise(pleroma.NewFilter()); err != nil {
		return err
	}
	delivered := 0
	if err := w.sys.Subscribe("s", hosts[len(hosts)-1], pleroma.NewFilter(), func(pleroma.Delivery) { delivered++ }); err != nil {
		return err
	}
	var pubTime, runTime time.Duration
	published := 0
	timeLoop(4*p.d, 1, func(int) {
		_, evs := p.in.events(pipeChunk)
		t0 := time.Now()
		for i := 0; i < len(evs); i += probeFrame {
			if e := pub.PublishBatch(evs[i : i+probeFrame]...); e != nil {
				err = e
			}
		}
		t1 := time.Now()
		w.sys.Run()
		pubTime += t1.Sub(t0)
		runTime += time.Since(t1)
		published += len(evs)
	})
	if err != nil {
		return err
	}
	if delivered != published {
		return fmt.Errorf("unicast probe delivered %d of %d events", delivered, published)
	}
	p.put("facade.unicast_publish_ns_per_event", float64(pubTime)/float64(published), "ns")
	p.put("facade.unicast_run_ns_per_event", float64(runTime)/float64(published), "ns")
	return nil
}

// facadeControl: the ctl-churn loop driven in-process, sz.deployed
// subscriptions held — that workload without its transport — then the
// snapshot/restore cycle of that state.
func (p *probes) facadeControl() error {
	rec := newRecorder()
	w := &churn{inproc: true}
	w.init(p.in, p.sz, rec)
	if err := w.setup(); err != nil {
		return err
	}
	defer w.close()
	var err error
	timeLoop(4*p.d, 1, func(int) {
		if _, e := w.step(); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	self, pairs := selfTimes(rec.spans), float64(rec.step)
	p.put("facade.subscribe_inproc_us", float64(self["subscribe"])/1e3/pairs, "us")
	p.put("facade.unsubscribe_inproc_us", float64(self["unsubscribe"])/1e3/pairs, "us")
	var snap []byte
	snapMs, err := medianMs(5, func() error {
		snap, err = w.sys.Snapshot(0)
		return err
	})
	if err != nil {
		return err
	}
	p.put("facade.snapshot_ms", snapMs, "ms")
	restoreMs, err := medianMs(3, func() error { return w.sys.Restore(0, snap) })
	if err != nil {
		return err
	}
	p.put("facade.restore_ms", restoreMs, "ms")
	return w.sys.VerifyTables()
}

// medianMs times fn n times and returns the median in milliseconds.
func medianMs(n int, fn func() error) (float64, error) {
	times := make([]float64, n)
	for i := range times {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times[i] = float64(time.Since(t0)) / 1e6
	}
	return median(times), nil
}

// core: a bare core.Controller on a netem.DataPlane with sz.deployed
// subscriptions held — Algorithm 1 and flow programming without the
// facade — then its snapshot codec and RestoreController.
func (p *probes) core() error {
	g, err := topo.FatTree(4, 4, 2, topo.DefaultLinkParams)
	if err != nil {
		return err
	}
	dp := netem.New(g, sim.NewEngine())
	ctl, err := core.NewController(g, dp, core.WithHostAddr(netem.HostAddr))
	if err != nil {
		return err
	}
	sch := benchSchema()
	hosts := g.Hosts()
	whole, err := sch.DecomposeLimited(space.NewFilter(), 24, 16)
	if err != nil {
		return err
	}
	for i := 0; i < fanoutPubs; i++ {
		if _, err := ctl.Advertise(fmt.Sprintf("p%d", i), hosts[i], whole); err != nil {
			return err
		}
	}
	var subTime, unsubTime time.Duration
	nextID, flowMods, calls := 0, 0, 0
	book := func(rep core.ReconfigReport) {
		flowMods += rep.FlowOps()
		calls += rep.SouthboundCalls
	}
	subscribe := func() (string, error) {
		id := fmt.Sprintf("s%d", nextID)
		nextID++
		rc, err := sch.Rect(p.in.rect().filter())
		if err != nil {
			return "", err
		}
		set, err := sch.DecomposeRectLimited(rc, 24, 16)
		if err != nil {
			return "", err
		}
		t0 := time.Now()
		rep, err := ctl.Subscribe(id, hosts[fanoutPubs+p.in.rng.Intn(subHosts)], set)
		subTime += time.Since(t0)
		book(rep)
		return id, err
	}
	live := make([]string, p.sz.deployed)
	for i := range live {
		if live[i], err = subscribe(); err != nil {
			return err
		}
	}
	subTime, flowMods, calls = 0, 0, 0 // the deployment is not the measurement
	head, ops := 0, 0
	timeLoop(4*p.d, 1, func(int) {
		t0 := time.Now()
		rep, e := ctl.Unsubscribe(live[head])
		unsubTime += time.Since(t0)
		if e != nil {
			err = e
		}
		book(rep)
		if live[head], e = subscribe(); e != nil {
			err = e
		}
		head = (head + 1) % len(live)
		ops += 2
	})
	if err != nil {
		return err
	}
	p.put("core.subscribe_us", float64(subTime)/1e3/float64(ops/2), "us")
	p.put("core.unsubscribe_us", float64(unsubTime)/1e3/float64(ops/2), "us")
	p.put("core.flowmods_per_op", float64(flowMods)/float64(ops), "count")
	p.put("core.southbound_calls_per_op", float64(calls)/float64(ops), "count")
	var snap []byte
	encMs, err := medianMs(5, func() error {
		snap, err = ctl.EncodeSnapshot()
		return err
	})
	if err != nil {
		return err
	}
	p.put("core.snapshot_encode_ms", encMs, "ms")
	p.put("core.snapshot_bytes", float64(len(snap)), "B")
	restoreMs, err := medianMs(1, func() error { // seconds each: once is enough for a diagnostic
		_, err := core.RestoreController(g, dp, snap, core.WithHostAddr(netem.HostAddr))
		return err
	})
	if err != nil {
		return err
	}
	p.put("core.restore_ms", restoreMs, "ms")
	return nil
}

// journals: appending one subscribe record to the in-memory journal and
// to the fsync-per-append file journal (disk-dependent, diagnostic only).
func (p *probes) journals() error {
	sch := benchSchema()
	rc, err := sch.Rect(p.in.rect().filter())
	if err != nil {
		return err
	}
	set, err := sch.DecomposeRectLimited(rc, 24, 16)
	if err != nil {
		return err
	}
	rec := wire.Record{Epoch: 1, Op: "subscribe", ID: "s1", Node: 7, Set: set}
	mem := core.NewMemJournal()
	ns, _ := timeLoop(p.d, 256, func(i int) {
		rec.Seq = uint64(i + 1)
		if e := mem.Append(rec); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	p.put("core.mem_journal_append_ns", ns, "ns")
	if err := os.MkdirAll(p.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(p.tmp, "journal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	file, err := core.OpenFileJournal(filepath.Join(dir, "probe.journal"))
	if err != nil {
		return err
	}
	defer file.Close()
	ns, _ = timeLoop(p.d, 1, func(i int) {
		rec.Seq = uint64(i + 1)
		if e := file.Append(rec); e != nil {
			err = e
		}
	})
	p.put("core.file_journal_append_us", ns/1e3, "us")
	return err
}
