package transport

import (
	"io"
	"net"
	"testing"
	"time"

	"pleroma/internal/retry"
	"pleroma/internal/space"
	"pleroma/internal/wire"
)

// TestWriteQueueReusesItsArrays: with one frame in flight at a time — the
// blocking-call pattern — enqueueing allocates nothing once the writer's two
// queue arrays exist, and the array handed back to the senders holds no
// reference to a payload already written.
func TestWriteQueueReusesItsArrays(t *testing.T) {
	local, peer := net.Pipe()
	defer peer.Close()
	fc := newFrameConn(local, 0, connMetrics{})
	defer fc.abort()
	payload := []byte("twelve bytes")
	frame := make([]byte, wire.FrameHeaderLen+len(payload))
	roundTrip := func() {
		if err := fc.send(wire.Frame{Kind: wire.KindSync, Corr: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(peer, frame); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("one frame in flight: %v allocations per send, want 0", allocs)
	}
	// The queue the senders now append to is the array the frame before the
	// last was drained from.
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if cap(fc.queue) == 0 {
		t.Fatal("the writer handed back no array")
	}
	for i, of := range fc.queue[:cap(fc.queue)] {
		if of.payload != nil {
			t.Errorf("recycled queue slot %d still references a written payload", i)
		}
	}
}

// TestPooledSendAllocs: a frame whose payload is drawn from the slab pool —
// a delivery batch — allocates nothing once the pool holds a buffer of its
// class: the box getBuf hands out rides the queued frame back to putBuf.
func TestPooledSendAllocs(t *testing.T) {
	local, peer := net.Pipe()
	defer peer.Close()
	fc := newFrameConn(local, 0, connMetrics{})
	defer fc.abort()
	payload := []byte("a delivery batch")
	frame := make([]byte, wire.FrameHeaderLen+len(payload))
	roundTrip := func() {
		buf := getBuf(len(payload))
		*buf = append(*buf, payload...)
		if err := fc.sendPooled(wire.KindDeliverBatch, 0, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(peer, frame); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("one pooled frame in flight: %v allocations per send, want 0", allocs)
	}
}

// TestRequestReuse: sequential blocking calls share one window request,
// hence one result channel and one deadline timer; a call that timed out
// abandons its request, so the late response it was waiting for cannot
// surface in a later call, and the timer it leaves behind does not cut the
// next call short.
func TestRequestReuse(t *testing.T) {
	b := &blockingBackend{fakeBackend: newFakeBackend(), gate: make(chan struct{})}
	_, addr := startServer(t, b)
	c, err := Dial(addr, WithClientRetry(retry.Policy{MaxAttempts: 1, OpDeadline: 150 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	idle := func() []*request {
		c.mu.Lock()
		defer c.mu.Unlock()
		return append([]*request(nil), c.free...)
	}
	for i := 0; i < 3; i++ {
		if err := c.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	first := idle()
	if len(first) != 1 || first[0].timer == nil {
		t.Fatalf("after three sequential calls %d requests are idle, want one with a timer", len(first))
	}
	ch, timer := first[0].ch, first[0].timer
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := idle(); len(got) != 1 || got[0] != first[0] || got[0].ch != ch || got[0].timer != timer {
		t.Fatal("the next sequential call did not reuse the idle request, its channel and its timer")
	}

	// The server sits on this publish past the deadline.
	if err := c.Publish("p", []space.Event{{Values: []uint32{1}}}); err == nil {
		t.Fatal("a publish the server never answers must time out")
	}
	if got := idle(); len(got) != 0 {
		t.Fatalf("the timed-out call's request went back to the free list (%d idle)", len(got))
	}
	close(b.gate) // the late OK leaves the server now
	for i := 0; i < 3; i++ {
		if d, err := c.Run(); err != nil || d == 0 {
			t.Fatalf("run %d after the timeout: %v, %v — want the run's own response", i, d, err)
		}
	}
	if got := idle(); len(got) != 1 || got[0] == first[0] {
		t.Fatalf("after the timeout: %d idle requests, abandoned request reused: %v", len(got), len(got) == 1 && got[0] == first[0])
	}
	// The request's timer is re-armed by every call, not left running from
	// the first: quick calls keep succeeding for longer than one deadline.
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := c.Sync(); err != nil {
			t.Fatalf("call on a reused request: %v", err)
		}
	}
}

// TestDeliveryBatchArrayIsKept: flushing a connection's accumulated
// deliveries keeps their array for the next backend call — so a steady run of
// calls fills it without regrowing — cleared, so it pins no subscription id or
// event values; a burst past one frame's worth of deliveries gives its array
// back to the GC.
func TestDeliveryBatchArrayIsKept(t *testing.T) {
	local, peer := net.Pipe()
	defer peer.Close()
	go io.Copy(io.Discard, peer)
	fc := newFrameConn(local, 0, connMetrics{})
	defer fc.abort()
	s := NewServer(newFakeBackend())
	fill := func(n int) {
		for i := 0; i < n; i++ {
			fc.dbatch = append(fc.dbatch, wire.Delivery{SubscriptionID: "s", Event: space.Event{Values: []uint32{uint32(i), 2}}})
		}
	}
	fill(100)
	kept := cap(fc.dbatch)
	s.flushConnDeliveries(fc)
	if len(fc.dbatch) != 0 || cap(fc.dbatch) != kept {
		t.Fatalf("after a flush: len %d cap %d, want the emptied array of cap %d", len(fc.dbatch), cap(fc.dbatch), kept)
	}
	for i, d := range fc.dbatch[:kept] {
		if d.SubscriptionID != "" || d.Event.Values != nil {
			t.Fatalf("kept slot %d still references a flushed delivery", i)
		}
	}
	fill(wire.MaxDeliveries + 1)
	s.flushConnDeliveries(fc)
	if fc.dbatch != nil {
		t.Fatalf("an array of cap %d outlived the burst that grew it", cap(fc.dbatch))
	}
}
