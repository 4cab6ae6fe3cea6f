package pleroma

import (
	"strings"
	"sync"
	"testing"

	"pleroma/internal/obs"
	"pleroma/internal/space"
	"pleroma/internal/wire"
)

// TestEndToEndTrace is the acceptance test of the tracing tentpole: one
// client publish produces exactly one distributed trace spanning the
// client (publish root span, recv span), the transport boundary, the
// daemon's data plane (server publish span, per-delivery spans), with
// the delivery-latency instruments populated along the way.
func TestEndToEndTrace(t *testing.T) {
	sys, err := NewSystem(netTestSchema(t),
		WithObservability(0), WithListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	c, err := Dial(sys.ListenAddr(), WithDialObservability(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hosts := c.Hosts()
	if err := c.Advertise("p", hosts[0], NewFilter()); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []Delivery
	if err := c.Subscribe("s", hosts[5], NewFilter(), func(d Delivery) {
		mu.Lock()
		got = append(got, d)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("p", 100, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("deliveries: %d, want 1", len(got))
	}
	d := got[0]
	if d.TraceID == 0 {
		t.Fatal("delivery carries no trace id")
	}
	if d.Hops == 0 {
		t.Fatal("delivery carries no hop count")
	}
	if d.PubWallNanos == 0 || d.WallLatency <= 0 {
		t.Fatalf("delivery wall accounting: stamp=%d latency=%v", d.PubWallNanos, d.WallLatency)
	}

	// Client half of the trace: the root publish span and the recv span
	// closing the loop.
	cspans := c.TraceByID(d.TraceID)
	ops := map[string]int{}
	var rootSpanID uint64
	for _, sp := range cspans {
		ops[sp.Op]++
		if sp.Op == "publish" {
			if sp.ParentID != 0 {
				t.Errorf("client publish span has parent %d, want root", sp.ParentID)
			}
			rootSpanID = sp.ID
		}
	}
	if ops["publish"] != 1 || ops["recv"] != 1 {
		t.Fatalf("client spans for trace %d: %v, want one publish + one recv", d.TraceID, ops)
	}

	// Daemon half: a server publish span parented to the client's root,
	// and one deliver span per matched subscription under it.
	sspans := sys.TraceByID(d.TraceID)
	ops = map[string]int{}
	var serverPubID uint64
	for _, sp := range sspans {
		ops[sp.Op]++
		if sp.Op == "publish" {
			if sp.ParentID != rootSpanID {
				t.Errorf("server publish span parent %d, want client span %d", sp.ParentID, rootSpanID)
			}
			serverPubID = sp.ID
		}
	}
	if ops["publish"] != 1 || ops["deliver"] != 1 {
		t.Fatalf("daemon spans for trace %d: %v, want one publish + one deliver", d.TraceID, ops)
	}
	for _, sp := range sspans {
		if sp.Op == "deliver" && sp.ParentID != serverPubID {
			t.Errorf("deliver span parent %d, want server publish span %d", sp.ParentID, serverPubID)
		}
	}

	// Latency accounting populated end to end.
	rep := sys.DeliveryLatency()
	if rep.Count == 0 {
		t.Fatal("delivery latency histogram empty")
	}
	if len(rep.ByTree) == 0 || len(rep.ByPartition) == 0 {
		t.Fatalf("per-tree/per-partition breakdowns empty: %v / %v", rep.ByTree, rep.ByPartition)
	}
	if rep.Hops == nil || rep.Hops.Count == 0 {
		t.Fatal("hop histogram empty")
	}
	if rep.Wall == nil || rep.Wall.Count == 0 {
		t.Fatal("wall latency histogram empty")
	}
	if len(rep.Slowest) == 0 || rep.Slowest[0].TraceID != d.TraceID {
		t.Fatalf("slowest ring: %+v", rep.Slowest)
	}

	// The client's own registry has the skew-free wall measure.
	found := false
	for _, f := range c.Metrics().Families {
		if f.Name == "pleroma_client_delivery_wall_latency_seconds" {
			for _, s := range f.Samples {
				if s.Hist != nil && s.Hist.Count > 0 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("client wall-latency histogram not populated")
	}
}

// TestTraceCoherenceAcrossReconnect: a publish retried over a reconnect
// must stay one coherent trace — the client mints its span once and
// re-sends the same bytes, so the dedup'd retry keeps a single trace id
// and produces no orphan spans.
func TestTraceCoherenceAcrossReconnect(t *testing.T) {
	sys, err := NewSystem(netTestSchema(t),
		WithObservability(0), WithListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	c, err := Dial(sys.ListenAddr(), WithDialObservability(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hosts := c.Hosts()
	if err := c.Advertise("p", hosts[0], NewFilter()); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var traces []uint64
	if err := c.Subscribe("s", hosts[5], NewFilter(), func(d Delivery) {
		mu.Lock()
		traces = append(traces, d.TraceID)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	// Sever the connection: the next publish fails its first attempt,
	// redials (replaying the registrations), and re-sends the identical
	// frame — same sequence number, same trace context.
	sys.server.DropConnections()
	if err := c.Publish("p", 100, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	if len(traces) != 1 || traces[0] == 0 {
		mu.Unlock()
		t.Fatalf("deliveries after reconnect: %v, want one traced delivery", traces)
	}
	tid := traces[0]
	mu.Unlock()

	// One publish span on the client despite the retry.
	pubs := 0
	for _, sp := range c.TraceByID(tid) {
		if sp.Op == "publish" {
			pubs++
		}
	}
	if pubs != 1 {
		t.Fatalf("client publish spans: %d, want 1 (span minted once per publish)", pubs)
	}
	// No orphans daemon-side: every span belongs to the one trace and
	// deliver spans parent onto a publish span present in the same trace.
	ids := map[uint64]bool{}
	sspans := sys.TraceByID(tid)
	for _, sp := range sspans {
		ids[sp.ID] = true
	}
	for _, sp := range sspans {
		if sp.Op == "deliver" && !ids[sp.ParentID] {
			t.Errorf("deliver span %d orphaned: parent %d not in trace", sp.ID, sp.ParentID)
		}
	}
}

// TestTraceDedupKeepsSingleSpanSet drives the backend directly with a
// duplicated traced publish (the at-least-once retry the transport
// performs): the second application must be acknowledged without
// re-injecting events, so the trace gains no second set of deliver spans.
func TestTraceDedupKeepsSingleSpanSet(t *testing.T) {
	sys, err := NewSystem(netTestSchema(t), WithObservability(0), WithTopology(TopologyRing20))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.enableStamping()
	b := &netBackend{sys: sys}
	hosts := sys.Hosts()
	if err := b.Control(wire.ControlReq{Op: "advertise", ID: "p", Host: uint32(hosts[0])}, nil); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var wds []wire.Delivery
	err = b.Control(wire.ControlReq{Op: "subscribe", ID: "s", Host: uint32(hosts[5]),
		Ranges: []wire.Range{{Attr: "price", Lo: 0, Hi: 1023}}},
		func(d wire.Delivery) { mu.Lock(); wds = append(wds, d); mu.Unlock() })
	if err != nil {
		t.Fatal(err)
	}

	req := wire.PublishReq{ID: "p", Seq: 1,
		Trace:  wire.TraceContext{TraceID: 777, SpanID: 3, PubWallNanos: 1},
		Events: []space.Event{{Values: []uint32{5, 6}}}}
	if err := b.Publish(req); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(req); err != nil { // the retry: deduplicated
		t.Fatal(err)
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(wds) != 1 {
		t.Fatalf("deliveries: %d, want 1 (retry deduplicated)", len(wds))
	}
	if wds[0].TraceID != 777 {
		t.Fatalf("delivery trace id %d, want 777", wds[0].TraceID)
	}
	delivers := 0
	for _, sp := range sys.TraceByID(777) {
		if sp.Op == "deliver" {
			delivers++
		}
	}
	if delivers != 1 {
		t.Fatalf("deliver spans in trace: %d, want 1", delivers)
	}
}

// TestTraceFollowsThePublish pins the one-protocol contract: a delivery
// carries a trace context exactly when the publish that caused it was
// traced — whatever the subscribing connection is or has.
func TestTraceFollowsThePublish(t *testing.T) {
	type recorder struct {
		mu  sync.Mutex
		got []Delivery
	}
	subscribe := func(t *testing.T, c *Client, rec *recorder) {
		t.Helper()
		if err := c.Subscribe("s", c.Hosts()[5], NewFilter(), func(d Delivery) {
			rec.mu.Lock()
			rec.got = append(rec.got, d)
			rec.mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	drain := func(t *testing.T, c *Client) {
		t.Helper()
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if err := c.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("untraced publish", func(t *testing.T) {
		sys, err := NewSystem(netTestSchema(t), WithObservability(0), WithListener("127.0.0.1:0"))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		c, err := Dial(sys.ListenAddr()) // no WithDialObservability: no tracer
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Advertise("p", c.Hosts()[0], NewFilter()); err != nil {
			t.Fatal(err)
		}
		var rec recorder
		subscribe(t, c, &rec)
		if err := c.Publish("p", 1, 2); err != nil {
			t.Fatal(err)
		}
		drain(t, c)
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if len(rec.got) != 1 {
			t.Fatalf("deliveries: %d, want 1", len(rec.got))
		}
		if d := rec.got[0]; d.TraceID != 0 || d.Hops != 0 || d.PubWallNanos != 0 {
			t.Fatalf("untraced publish surfaced trace data: %+v", d)
		}
		// The daemon still accounts for latency internally (it stamps its
		// own publications), just without a trace.
		if rep := sys.DeliveryLatency(); rep.Count == 0 {
			t.Fatal("daemon latency histogram empty")
		}
		if strings.Contains(deliveryKey(rec.got[0]), "trace") {
			t.Fatal("deliveryKey must stay trace-agnostic for the equivalence tests")
		}
	})

	t.Run("traced publish, tracer-less subscriber", func(t *testing.T) {
		sys, err := NewSystem(netTestSchema(t), WithObservability(0), WithListener("127.0.0.1:0"))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		traced, err := Dial(sys.ListenAddr(), WithDialObservability(0))
		if err != nil {
			t.Fatal(err)
		}
		defer traced.Close()
		plain, err := Dial(sys.ListenAddr()) // the subscriber: no tracer
		if err != nil {
			t.Fatal(err)
		}
		defer plain.Close()
		// Both publishers sit on one host, so their events reach the
		// subscriber in publish order.
		host := plain.Hosts()[0]
		if err := traced.Advertise("pt", host, NewFilter()); err != nil {
			t.Fatal(err)
		}
		if err := plain.Advertise("pu", host, NewFilter()); err != nil {
			t.Fatal(err)
		}
		var rec recorder
		subscribe(t, plain, &rec)
		if err := traced.Publish("pt", 1, 2); err != nil {
			t.Fatal(err)
		}
		if err := plain.Publish("pu", 3, 4); err != nil {
			t.Fatal(err)
		}
		drain(t, plain) // one Run produces both deliveries: one frame

		rec.mu.Lock()
		defer rec.mu.Unlock()
		if len(rec.got) != 2 {
			t.Fatalf("deliveries: %d, want 2", len(rec.got))
		}
		first, second := rec.got[0], rec.got[1]
		if first.Event.Values[0] != 1 || second.Event.Values[0] != 3 {
			t.Fatalf("mixed batch decoded out of order: %v then %v", first.Event.Values, second.Event.Values)
		}
		spans := traced.Traces()
		if len(spans) == 0 {
			t.Fatal("tracing client recorded no publish span")
		}
		if first.TraceID == 0 || first.TraceID != spans[0].TraceID || first.Hops == 0 || first.PubWallNanos == 0 {
			t.Fatalf("traced delivery arrived without its trace (publish trace %d): %+v", spans[0].TraceID, first)
		}
		if second.TraceID != 0 || second.Hops != 0 || second.PubWallNanos != 0 {
			t.Fatalf("untraced delivery picked up trace data in a mixed batch: %+v", second)
		}
		// Both rode one KindDeliverBatch frame.
		var frames, deliveries uint64
		for _, fam := range sys.Metrics().Families {
			if fam.Name != obs.MTransportDeliverBatch {
				continue
			}
			for _, smp := range fam.Samples {
				if smp.Hist != nil {
					frames += smp.Hist.Count
					deliveries += uint64(smp.Hist.Sum)
				}
			}
		}
		if frames != 1 || deliveries != 2 {
			t.Fatalf("deliver-batch frames=%d deliveries=%d, want one frame of two", frames, deliveries)
		}
	})
}
