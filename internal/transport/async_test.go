package transport

import (
	"testing"
	"time"

	"pleroma/internal/retry"
	"pleroma/internal/space"
	"pleroma/internal/wire"
)

// TestPublishAsyncCoalescing pins the deterministic coalescing shape: with
// linger effectively off and a 4-event threshold, 16 single-event
// PublishAsync calls become exactly 4 in-order PublishReqs of 4 events.
func TestPublishAsyncCoalescing(t *testing.T) {
	b := newFakeBackend()
	_, addr := startServer(t, b)
	c, err := Dial(addr, WithClientOptions(Options{BatchEvents: 4, Linger: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ranges := []wire.Range{{Attr: "x", Lo: 0, Hi: 99}}
	if err := c.Advertise("p1", 10, ranges); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := c.PublishAsync("p1", []space.Event{{Values: []uint32{uint32(i), 2}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pubs) != 4 {
		t.Fatalf("backend saw %d publish requests, want 4", len(b.pubs))
	}
	next := uint32(0)
	for i, req := range b.pubs {
		if req.ID != "p1" || req.Seq != uint64(i+1) || len(req.Events) != 4 {
			t.Fatalf("req %d = id %q seq %d events %d, want p1/%d/4", i, req.ID, req.Seq, len(req.Events), i+1)
		}
		for _, ev := range req.Events {
			if ev.Values[0] != next {
				t.Fatalf("event order drifted: got %d want %d", ev.Values[0], next)
			}
			next++
		}
	}
}

// TestPublishAsyncSyncOrdering pins the mixed-path ordering rule: a
// synchronous Publish seals the publisher's pending async batch first, so
// a sequential caller's events reach the backend in call order with
// monotonically increasing sequence numbers.
func TestPublishAsyncSyncOrdering(t *testing.T) {
	b := newFakeBackend()
	_, addr := startServer(t, b)
	c, err := Dial(addr, WithClientOptions(Options{Linger: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Advertise("p1", 10, []wire.Range{{Attr: "x", Lo: 0, Hi: 99}}); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishAsync("p1", []space.Event{{Values: []uint32{1, 1}}, {Values: []uint32{2, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("p1", []space.Event{{Values: []uint32{3, 3}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pubs) != 2 {
		t.Fatalf("backend saw %d publish requests, want 2", len(b.pubs))
	}
	if len(b.pubs[0].Events) != 2 || b.pubs[0].Seq != 1 {
		t.Fatalf("first req = seq %d with %d events, want async batch seq 1 with 2", b.pubs[0].Seq, len(b.pubs[0].Events))
	}
	if len(b.pubs[1].Events) != 1 || b.pubs[1].Seq != 2 || b.pubs[1].Events[0].Values[0] != 3 {
		t.Fatalf("second req = %+v, want the sync publish at seq 2", b.pubs[1])
	}
}

// blockingBackend gates Publish on a channel, so a test can hold acks back
// and observe the client's window fill.
type blockingBackend struct {
	*fakeBackend
	gate chan struct{}
}

func (b *blockingBackend) Publish(req wire.PublishReq) error {
	<-b.gate
	return b.fakeBackend.Publish(req)
}

// TestPublishAsyncWindowBackpressure proves the credit window blocks: with
// a window of 2 and acks withheld, the third single-event batch cannot be
// sealed until an ack frees a slot.
func TestPublishAsyncWindowBackpressure(t *testing.T) {
	b := &blockingBackend{fakeBackend: newFakeBackend(), gate: make(chan struct{})}
	_, addr := startServer(t, b)
	c, err := Dial(addr, WithClientOptions(Options{Window: 2, BatchEvents: 1, Linger: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Advertise("p1", 10, []wire.Range{{Attr: "x", Lo: 0, Hi: 99}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.PublishAsync("p1", []space.Event{{Values: []uint32{uint32(i), 0}}}); err != nil {
			t.Fatal(err)
		}
	}
	third := make(chan error, 1)
	go func() {
		third <- c.PublishAsync("p1", []space.Event{{Values: []uint32{9, 9}}})
	}()
	select {
	case err := <-third:
		t.Fatalf("third publish returned (%v) with the window full", err)
	case <-time.After(100 * time.Millisecond):
	}
	// Release every publish: the first ack frees a window slot and the
	// blocked call completes.
	close(b.gate)
	select {
	case err := <-third:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("third publish still blocked after acks")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pubs) != 3 {
		t.Fatalf("backend saw %d publish requests, want 3", len(b.pubs))
	}
}

// TestPublishAsyncReconnectMidWindow drops every connection while a window
// of publishes is in flight: the pipeline must redial on its own, replay
// the unacked window, and the backend must see every sequence number with
// any replays arriving in order (dedup by Seq is the backend's contract;
// the transport's job is ordered, gap-free arrival).
func TestPublishAsyncReconnectMidWindow(t *testing.T) {
	b := newFakeBackend()
	srv, addr := startServer(t, b)
	c, err := Dial(addr,
		WithClientOptions(Options{Window: 4, BatchEvents: 1, Linger: time.Hour}),
		WithClientRetry(retry.Policy{MaxAttempts: 20, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Advertise("p1", 10, []wire.Range{{Attr: "x", Lo: 0, Hi: 99}}); err != nil {
		t.Fatal(err)
	}
	const total = 40
	for i := 0; i < total; i++ {
		if err := c.PublishAsync("p1", []space.Event{{Values: []uint32{uint32(i), 0}}}); err != nil {
			t.Fatal(err)
		}
		if i == 10 || i == 25 {
			srv.DropConnections()
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	seen := make(map[uint64]int)
	last := uint64(0)
	for _, req := range b.pubs {
		if req.ID != "p1" {
			t.Fatalf("unexpected publisher %q", req.ID)
		}
		seen[req.Seq]++
		// Replays may repeat an unacked prefix, but a sequence may never
		// arrive before its predecessor's first arrival (the dedup
		// precondition).
		if req.Seq > last+1 {
			t.Fatalf("sequence gap: %d arrived after %d", req.Seq, last)
		}
		if req.Seq > last {
			last = req.Seq
		}
	}
	for s := uint64(1); s <= total; s++ {
		if seen[s] == 0 {
			t.Fatalf("sequence %d never reached the backend", s)
		}
	}
	if last != total {
		t.Fatalf("highest sequence %d, want %d", last, total)
	}
}

// TestPublishAsyncAllocs: in steady state the pipelined publish path makes
// one allocation per sealed frame — the payload the window keeps until the
// ack — and none per event: an event is encoded into its publisher's
// coalescing buffer, which outlives the seal. The daemon allocates nothing
// per frame, so the count is the client's own: PublishAsync, the seal, the
// writer goroutine and the reader that takes the ack.
func TestPublishAsyncAllocs(t *testing.T) {
	const batch = 64
	d := startRawDaemon(t, false)
	c, err := Dial(d.ln.Addr().String(), WithClientOptions(Options{BatchEvents: batch, Linger: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vals := []uint32{0, 2}
	ev := []space.Event{{Values: vals}}
	published := 0
	publish := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				vals[0] = uint32(published)
				published++
				if err := c.PublishAsync("p", ev); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 100; i++ { // fill the window, the free list and the writer's queue arrays
		publish(batch)()
	}
	perFrame := testing.AllocsPerRun(200, publish(batch))
	// Fewer events than a frame holds: nothing is sealed.
	perEvent := testing.AllocsPerRun(batch-2, publish(1))
	t.Logf("%v allocations per sealed frame of %d events, %v per event that seals none", perFrame, batch, perEvent)
	if perFrame > 1 {
		t.Errorf("a sealed frame of %d events: %v allocations, want at most 1", batch, perFrame)
	}
	if perEvent != 0 {
		t.Errorf("an event that seals no frame: %v allocations, want 0", perEvent)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := (published + batch - 1) / batch; int(d.sends.Load()) != want {
		t.Errorf("%d events went out in %d frames, want %d", published, d.sends.Load(), want)
	}
}

// TestPublishAsyncRefusesUnencodableEvent: a PublishAsync call holding an
// event with no encoding is refused whole — the events before it are not
// enqueued either — and leaves the pipeline healthy.
func TestPublishAsyncRefusesUnencodableEvent(t *testing.T) {
	b := newFakeBackend()
	_, addr := startServer(t, b)
	c, err := Dial(addr, WithClientOptions(Options{BatchEvents: 1, Linger: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PublishAsync("p1", []space.Event{{Values: []uint32{1, 2}}, {}}); err == nil {
		t.Fatal("an event without values was accepted")
	}
	if err := c.PublishAsync("p1", []space.Event{{Values: []uint32{3, 4}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pubs) != 1 || len(b.pubs[0].Events) != 1 || b.pubs[0].Events[0].Values[0] != 3 || b.pubs[0].Seq != 1 {
		t.Fatalf("backend saw %+v, want the one valid event of the second call at seq 1", b.pubs)
	}
}
