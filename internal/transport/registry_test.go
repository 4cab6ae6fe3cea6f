package transport

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pleroma/internal/retry"
	"pleroma/internal/wire"
)

var fastRetry = WithClientRetry(retry.Policy{
	MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	OpDeadline: 2 * time.Second,
})

// controlLog returns the control ops the backend accepted from index from on,
// as "op:id".
func (b *fakeBackend) controlLog(from int) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ops []string
	for _, r := range b.controls[from:] {
		ops = append(ops, string(r.Op)+":"+r.ID)
	}
	return ops
}

// TestRejectedResubscribeKeepsLiveHandler: a Subscribe the server refuses
// must leave an accepted subscription of the same id as it was — handler
// included, or its deliveries are silently dropped.
func TestRejectedResubscribeKeepsLiveHandler(t *testing.T) {
	b := newFakeBackend()
	b.subHosts = make(map[string]uint32)
	srv, addr := startServer(t, b)
	c, err := Dial(addr, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var first, second atomic.Int32
	if err := c.Subscribe("s", 10, nil, func(wire.Delivery) { first.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("s", 11, nil, func(wire.Delivery) { second.Add(1) }); err == nil {
		t.Fatal("subscribe with different parameters was accepted")
	}
	run := func() {
		t.Helper()
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if err := c.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if run(); first.Load() != 1 || second.Load() != 0 {
		t.Fatalf("after the refused re-subscribe the live handler saw %d of 1 deliveries, the refused one %d",
			first.Load(), second.Load())
	}
	// The registration is still replayed — once, as first made.
	mark := len(b.controlLog(0))
	srv.DropConnections()
	if run(); first.Load() != 2 {
		t.Fatalf("after reconnect the live handler saw %d of 2 deliveries", first.Load())
	}
	if got, want := b.controlLog(mark), []string{"subscribe:s"}; !slices.Equal(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// TestAcceptedResubscribeIsOneRegistration: an identical re-subscribe is a
// rebind. The new handler takes over and a reconnect replays the
// subscription once, at its original place in the arrival order.
func TestAcceptedResubscribeIsOneRegistration(t *testing.T) {
	b := newFakeBackend()
	b.subHosts = make(map[string]uint32)
	srv, addr := startServer(t, b)
	c, err := Dial(addr, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var first, second atomic.Int32
	if err := c.Subscribe("s", 10, nil, func(wire.Delivery) { first.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("t", 10, nil, func(wire.Delivery) {}); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("s", 10, nil, func(wire.Delivery) { second.Add(1) }); err != nil {
		t.Fatal(err)
	}
	mark := len(b.controlLog(0))
	srv.DropConnections()
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := b.controlLog(mark), []string{"subscribe:s", "subscribe:t"}; !slices.Equal(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if first.Load() != 0 || second.Load() != 1 {
		t.Fatalf("old handler saw %d deliveries, new handler %d; want 0 and 1", first.Load(), second.Load())
	}
}

// TestReplayIsArrivalOrder: with registrations keyed by id, a reconnect
// still replays the survivors in the order they were made — advertisements,
// then subscriptions.
func TestReplayIsArrivalOrder(t *testing.T) {
	b := newFakeBackend()
	srv, addr := startServer(t, b)
	c, err := Dial(addr, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var advs, subs []string // the slice-based model
	for i := 0; i < 50; i++ {
		// Ids whose lexicographic and hash orders both differ from arrival.
		a, s := fmt.Sprintf("p%d", (i*37)%50), fmt.Sprintf("s%d", (i*23)%50)
		if err := c.Advertise(a, 10, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(s, 11, nil, func(wire.Delivery) {}); err != nil {
			t.Fatal(err)
		}
		advs, subs = append(advs, a), append(subs, s)
	}
	for _, i := range []int{0, 49, 17, 30, 3} { // head, tail, middle
		if err := c.Unadvertise(advs[i]); err != nil {
			t.Fatal(err)
		}
		if err := c.Unsubscribe(subs[i]); err != nil {
			t.Fatal(err)
		}
		advs[i], subs[i] = "", ""
	}
	var want []string
	for _, a := range advs {
		if a != "" {
			want = append(want, "advertise:"+a)
		}
	}
	for _, s := range subs {
		if s != "" {
			want = append(want, "subscribe:"+s)
		}
	}
	mark := len(b.controlLog(0))
	srv.DropConnections()
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := b.controlLog(mark); !slices.Equal(got, want) {
		t.Fatalf("replayed\n%v\nwant arrival order\n%v", got, want)
	}
}
