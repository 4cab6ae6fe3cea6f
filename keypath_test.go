package pleroma

import (
	"errors"
	"slices"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/ipmc"
	"pleroma/internal/netem"
	"pleroma/internal/wire"
)

// TestPublishAdmissionAllocs: admitting, injecting, forwarding and
// delivering a batch costs one object — the block holding the copy of the
// caller's tuples, which the packets keep — and nothing per event: the
// publication slice is the publisher's scratch. The event's dz is a packed
// key made once: no expression string, no bisection scratch, no address
// list. At five hops and one matching subscription, with observability off
// and on.
func TestPublishAdmissionAllocs(t *testing.T) {
	const events = 256
	for _, opts := range [][]Option{nil, {WithObservability(0)}} {
		sys := newSys(t, opts...)
		hosts := sys.Hosts()
		pub, err := sys.NewPublisher("p", hosts[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Advertise(NewFilter()); err != nil {
			t.Fatal(err)
		}
		delivered := 0
		if err := sys.Subscribe("s", hosts[7], NewFilter(), func(Delivery) { delivered++ }); err != nil {
			t.Fatal(err)
		}
		tuples := make([][]uint32, events)
		for i := range tuples {
			tuples[i] = []uint32{uint32(i*37) % 1024, uint32(i*101) % 1024}
		}
		batch := func() {
			if err := pub.PublishBatch(tuples...); err != nil {
				t.Fatal(err)
			}
			sys.Run()
		}
		batch() // grow the packet slab, the event queue and the event window
		batch()
		delivered = 0
		allocs := testing.AllocsPerRun(20, batch)
		if delivered != 21*events {
			t.Fatalf("observability=%v: %d deliveries, want %d", opts != nil, delivered, 21*events)
		}
		if allocs > 1 {
			t.Errorf("observability=%v: a batch of %d events allocates %.0f objects, want at most 1",
				opts != nil, events, allocs)
		}
	}
}

// TestBackendPublishFrameAllocs: a publish frame applied by the transport
// backend allocates nothing: the events keep the values the frame decoder
// already copied out of the payload, and the publication slice is the
// publisher's scratch, cleared after the call so it pins nothing of the
// decoded frame.
func TestBackendPublishFrameAllocs(t *testing.T) {
	const events = 64
	sys := newSys(t)
	b := &netBackend{sys: sys}
	host := sys.Hosts()[0]
	if err := b.Control(wire.ControlReq{Op: wire.OpAdvertise, ID: "p", Host: uint32(host)}, nil); err != nil {
		t.Fatal(err)
	}
	req := wire.PublishReq{ID: "p", Events: make([]Event, events)}
	for i := range req.Events {
		req.Events[i].Values = []uint32{uint32(i*37) % 1024, uint32(i*101) % 1024}
	}
	frame := func() {
		if err := b.Publish(req); err != nil {
			t.Fatal(err)
		}
		sys.Run() // nobody subscribed: every packet is a table miss at the first switch
	}
	frame()
	if allocs := testing.AllocsPerRun(20, frame); allocs != 0 {
		t.Errorf("a publish frame of %d events allocates %.0f objects, want 0", events, allocs)
	}
	pub := sys.pubs["p"]
	if len(pub.pubScratch) != 0 || cap(pub.pubScratch) < events {
		t.Fatalf("scratch not kept empty between frames: publications len %d cap %d",
			len(pub.pubScratch), cap(pub.pubScratch))
	}
	for i := 0; i < events; i++ {
		if pub.pubScratch[:events][i].Event.Values != nil {
			t.Fatalf("scratch entry %d still references the frame's values", i)
		}
	}
}

// TestPublishBatchAllocs: an in-process PublishBatch copies the batch's
// tuples once, into one block the events share, and allocates nothing else
// on its way through admission and the data plane.
func TestPublishBatchAllocs(t *testing.T) {
	const events = 16
	sys := newSys(t)
	pub, err := sys.NewPublisher("p", sys.Hosts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	tuples := make([][]uint32, events)
	for i := range tuples {
		tuples[i] = []uint32{uint32(i*37) % 1024, uint32(i*101) % 1024}
	}
	batch := func() {
		if err := pub.PublishBatch(tuples...); err != nil {
			t.Fatal(err)
		}
		sys.Run() // nobody subscribed: every packet is a table miss at the first switch
	}
	batch()
	if allocs := testing.AllocsPerRun(50, batch); allocs != 1 {
		t.Errorf("a batch of %d events allocates %.0f objects, want 1", events, allocs)
	}
}

// TestBatchSharesOneOriginInstant: the wall-clock origin is read once per
// publish request, not once per event — every delivery of a batch echoes the
// same non-zero instant — and not at all when the request carried the
// client's own, which is echoed unchanged.
func TestBatchSharesOneOriginInstant(t *testing.T) {
	sys := newSys(t, WithObservability(0))
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	var stamps []int64
	if err := sys.Subscribe("s", hosts[5], NewFilter(), func(d Delivery) { stamps = append(stamps, d.PubWallNanos) }); err != nil {
		t.Fatal(err)
	}
	tuples := [][]uint32{{1, 2}, {300, 4}, {5, 600}, {1000, 1000}}
	if err := pub.PublishBatch(tuples...); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if len(stamps) != len(tuples) || stamps[0] == 0 {
		t.Fatalf("deliveries carry origin stamps %v, want %d non-zero", stamps, len(tuples))
	}
	for _, st := range stamps {
		if st != stamps[0] {
			t.Fatalf("one batch, several origin instants: %v", stamps)
		}
	}
	stamps = stamps[:0]
	if err := pub.publishBatchTraced(wire.TraceContext{PubWallNanos: 42}, len(tuples), func(i int) Event { return Event{Values: tuples[i]} }); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if !slices.Equal(stamps, []int64{42, 42, 42, 42}) {
		t.Fatalf("client-stamped batch delivered origin stamps %v, want the client's 42", stamps)
	}
}

// TestHandInjectedPacketDemux: an event packet built by hand — destination
// address and the dz as an expression, no key — and sent with SendFromHost
// is demultiplexed as it always was: on every host it reaches, to the
// subscriptions whose region overlaps the expression's first L_dz bits. The
// injection boundary packs the expression once; dispatch reads only the key.
func TestHandInjectedPacketDemux(t *testing.T) {
	const maxDz = 8
	sys := newSys(t, WithMaxDzLen(maxDz))
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	var fired []string
	subscribe := func(id string, host HostID, f Filter) {
		t.Helper()
		if err := sys.Subscribe(id, host, f, func(d Delivery) { fired = append(fired, d.SubscriptionID) }); err != nil {
			t.Fatal(err)
		}
	}
	subscribe("low", hosts[7], NewFilter().Range("price", 0, 511))
	subscribe("lowest", hosts[7], NewFilter().Range("price", 0, 255))
	subscribe("high", hosts[7], NewFilter().Range("price", 512, 1023))
	subscribe("corner", hosts[7], NewFilter().Range("price", 64, 127).Range("volume", 896, 959))
	subscribe("all", hosts[3], NewFilter())

	ev, err := sys.sch.NewEvent(100, 900)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sys.sch.Encode(ev, sys.sch.Geometry().MaxLen())
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []dz.Expr{"", "0", "1", full.Truncate(maxDz - 1), full.Truncate(maxDz), full.Truncate(maxDz + 1), full} {
		addr, err := ipmc.EventAddr(expr)
		if err != nil {
			t.Fatal(err)
		}
		received := make(map[HostID]uint64)
		for _, h := range hosts {
			received[h] = sys.dp.HostReceived(h)
		}
		fired = fired[:0]
		if err := sys.dp.SendFromHost(hosts[0], netem.Packet{
			Dst: addr, Expr: expr, Event: ev, Publisher: hosts[0],
			SizeBytes: netem.DefaultPacketSize, HopLimit: netem.DefaultHopLimit,
		}); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		// The model: every subscription on a host the packet reached whose
		// set overlaps the truncated expression.
		var want []string
		for id, st := range sys.subs {
			if sys.dp.HostReceived(st.host) > received[st.host] && st.set.Overlaps(expr.Truncate(maxDz)) {
				want = append(want, id)
			}
		}
		slices.Sort(want)
		got := slices.Clone(fired)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("expression %q (%d bits): delivered to %v, want %v", expr, expr.Len(), got, want)
		}
		if expr.Len() >= maxDz && !slices.Contains(got, "corner") {
			t.Errorf("expression %q: the event lies in \"corner\" and was not delivered to it (%v)", expr, got)
		}
	}
}

// TestReindexAdmitsProjectedKey: after a re-index, admission packs the event
// over the projected schema — all L_dz bits refine the selected dimension —
// and the receiving host demultiplexes on that key.
func TestReindexAdmitsProjectedKey(t *testing.T) {
	sys, pub, count := reindexFixture(t)
	admitted := func(hot, cold uint32) dz.Key {
		t.Helper()
		pb, err := pub.admit(wire.TraceContext{}, Event{Values: []uint32{hot, cold}})
		if err != nil {
			t.Fatal(err)
		}
		return pb.Key
	}
	// 150 = 0010010110b, 512 = 1000000000b: interleaved over (hot, cold).
	if got := admitted(150, 512).Expr(); got != "01001000" {
		t.Fatalf("full-space key %q, want 01001000", got)
	}
	if _, err := sys.ReindexDimensions(0.8); err != nil {
		t.Fatal(err)
	}
	key := admitted(150, 512)
	if got := key.Expr(); got != "00100101" {
		t.Fatalf("projected key %q, want the first 8 bits of hot, 00100101", got)
	}
	want, err := sys.proj.sch.Encode(Event{Values: []uint32{150}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if key.Expr() != want {
		t.Fatalf("projected key %q, projected schema encodes %q", key.Expr(), want)
	}
	// Demux by that key reaches "s" (hot ∈ [100,200]) and not its neighbours.
	before := *count
	sys.dispatch(sys.subs["s"].host, netem.Delivery{Host: sys.subs["s"].host,
		Packet: netem.Packet{Key: key, Event: Event{Values: []uint32{150, 512}}}})
	if *count != before+1 {
		t.Fatalf("dispatch on the projected key: %d deliveries to s, want 1", *count-before)
	}
	// And end to end: 205 is outside [100,200] and, with 8 bits on hot, in a
	// different cell than anything s subscribed to.
	for _, c := range []struct {
		hot  uint32
		want int
	}{{150, 1}, {205, 0}, {900, 0}} {
		before := *count
		if err := pub.Publish(c.hot, 512); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if got := *count - before; got != c.want {
			t.Errorf("hot=%d after reindex: %d deliveries, want %d (key %s)", c.hot, got, c.want, admitted(c.hot, 512).Expr())
		}
	}
}

// TestPublishErrorsKeepTextAndSequence: what admission refuses, it refuses
// with the errors callers already match on — including a dz no address can
// carry, which the data plane's expression entry point used to refuse one
// layer down — and a refused publish, single or batched, takes no sequence
// number.
func TestPublishErrorsKeepTextAndSequence(t *testing.T) {
	sys := newSys(t)
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(1, 2); !errors.Is(err, ErrNotAdvertised) {
		t.Errorf("publish before advertise: %v", err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Subscribe("s", hosts[7], NewFilter(), nil); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if err := sys.dp.ConfigureHost(hosts[7], netem.HostConfig{}, func(d netem.Delivery) {
		seqs = append(seqs, d.Packet.Seq)
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		publish func() error
		want    string
	}{
		{func() error { return pub.Publish(1) }, "space: event has 1 values, schema has 2 attributes"},
		{func() error { return pub.Publish(1, 5000) }, `space: value 5000 of attribute "volume" exceeds domain max 1023`},
		{func() error { return pub.PublishBatch([]uint32{1, 2}, []uint32{1, 5000}) }, `space: value 5000 of attribute "volume" exceeds domain max 1023`},
	} {
		if err := c.publish(); err == nil || err.Error() != c.want {
			t.Errorf("refused publish: %v, want %s", err, c.want)
		}
	}
	if err := pub.Publish(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishBatch([]uint32{3, 4}, []uint32{5, 6}); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if !slices.Equal(seqs, []uint64{1, 2, 3}) {
		t.Errorf("sequence numbers after refused publishes: %v, want [1 2 3]", seqs)
	}

	// 12 × 10 bits under L_dz 120: every event's dz is 120 bits long.
	attrs := make([]Attribute, 12)
	for i := range attrs {
		attrs[i] = Attribute{Name: "a" + itoa(i), Bits: 10}
	}
	sch, err := NewSchema(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewSystem(sch, WithMaxDzLen(120))
	if err != nil {
		t.Fatal(err)
	}
	wpub, err := wide.NewPublisher("p", wide.Hosts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := wpub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	const tooLong = "netem: publish: ipmc: dz length 120 exceeds 112 bits"
	vals := make([]uint32, 12)
	if err := wpub.Publish(vals...); err == nil || err.Error() != tooLong {
		t.Errorf("publish of a 120-bit dz: %v, want %s", err, tooLong)
	}
	if err := wpub.PublishBatch(vals, vals); err == nil || err.Error() != tooLong {
		t.Errorf("batch of 120-bit dz: %v, want %s", err, tooLong)
	}
}
