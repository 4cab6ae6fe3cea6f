package pleroma

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
)

// TestNetworkPublishAsyncCopiesValues: the pipelined publish calls copy the
// caller's values before they return, as the in-process Publisher does, so
// a caller may reuse one buffer for every event. Ten events published from
// one mutated buffer arrive as ten different events, through PublishAsync
// and through PublishBatchAsync.
func TestNetworkPublishAsyncCopiesValues(t *testing.T) {
	for _, tc := range []struct {
		name    string
		publish func(c *Client, vals []uint32) error
	}{
		{"PublishAsync", func(c *Client, vals []uint32) error { return c.PublishAsync("p", vals...) }},
		{"PublishBatchAsync", func(c *Client, vals []uint32) error { return c.PublishBatchAsync("p", vals, vals) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialOwnershipDaemon(t)
			var mu sync.Mutex
			var got []uint32
			hosts := c.Hosts()
			if err := c.Subscribe("s", hosts[len(hosts)-1], NewFilter(), func(d Delivery) {
				mu.Lock()
				got = append(got, d.Event.Values[0])
				mu.Unlock()
			}); err != nil {
				t.Fatal(err)
			}
			if err := c.Advertise("p", hosts[0], NewFilter()); err != nil {
				t.Fatal(err)
			}
			buf := []uint32{0, 0}
			var want []uint32
			for i := uint32(0); i < 10; i++ {
				buf[0] = i
				if err := tc.publish(c, buf); err != nil {
					t.Fatal(err)
				}
				want = append(want, i)
				if tc.name == "PublishBatchAsync" {
					want = append(want, i)
				}
			}
			if err := c.Flush(); err != nil {
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
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("delivered first values %v, want %v", got, want)
			}
		})
	}
}

// TestHandlersKeepDeliveredValues: a handler may keep d.Event.Values. Two
// subscribers keep the values of every delivery across 128 batches of 16
// events — published from one buffer the caller rewrites for every batch —
// and at the end every kept slice still holds what was delivered, which is
// what was published. Each handler also appends to the values it got: an
// event's values are capacity-clipped, so that never writes into the next
// event of the same batch. In process, and over TCP pipelined (where the
// reader goroutine decodes the values the test goroutine reads at the end).
func TestHandlersKeepDeliveredValues(t *testing.T) {
	const batches, perBatch = 128, 16
	type kept struct {
		vals, copied []uint32
	}
	var mu sync.Mutex
	byEvent := map[string][]kept{} // subscription id → what its handler kept
	handler := func(d Delivery) {
		mu.Lock()
		byEvent[d.SubscriptionID] = append(byEvent[d.SubscriptionID], kept{d.Event.Values, slices.Clone(d.Event.Values)})
		mu.Unlock()
		_ = append(d.Event.Values, 1<<20) // out of the domain: visible if it lands in the next event
	}
	tuples := make([][]uint32, perBatch)
	for i := range tuples {
		tuples[i] = make([]uint32, 2)
	}
	// fill rewrites the caller's tuples for batch b: event i of batch b is
	// (b, i), so every event of the run is distinct.
	fill := func(b int) {
		for i, tu := range tuples {
			tu[0], tu[1] = uint32(b), uint32(i)
		}
	}
	check := func(t *testing.T) {
		t.Helper()
		var want []string
		for b := 0; b < batches; b++ {
			for i := 0; i < perBatch; i++ {
				want = append(want, fmt.Sprint([]uint32{uint32(b), uint32(i)}))
			}
		}
		sort.Strings(want)
		mu.Lock()
		defer mu.Unlock()
		defer clear(byEvent)
		for _, id := range []string{"s0", "s1"} {
			var got []string
			for _, k := range byEvent[id] {
				if !slices.Equal(k.vals, k.copied) {
					t.Fatalf("%s: kept values changed from %v to %v after delivery", id, k.copied, k.vals)
				}
				got = append(got, fmt.Sprint(k.vals))
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: kept %d deliveries that differ from the %d published events", id, len(got), len(want))
			}
		}
	}

	t.Run("in-process", func(t *testing.T) {
		sys := newSys(t)
		hosts := sys.Hosts()
		for i, id := range []string{"s0", "s1"} {
			if err := sys.Subscribe(id, hosts[5+i], NewFilter(), handler); err != nil {
				t.Fatal(err)
			}
		}
		pub, err := sys.NewPublisher("p", hosts[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Advertise(NewFilter()); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < batches; b++ {
			fill(b)
			if err := pub.PublishBatch(tuples...); err != nil {
				t.Fatal(err)
			}
			sys.Run()
		}
		check(t)
	})

	t.Run("tcp-pipelined", func(t *testing.T) {
		c := dialOwnershipDaemon(t)
		hosts := c.Hosts()
		for i, id := range []string{"s0", "s1"} {
			if err := c.Subscribe(id, hosts[5+i], NewFilter(), handler); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Advertise("p", hosts[0], NewFilter()); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < batches; b++ {
			fill(b)
			for _, tu := range tuples {
				if err := c.PublishAsync("p", tu...); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if err := c.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		check(t)
	})
}

// dialOwnershipDaemon starts a daemonized system on loopback and dials it.
func dialOwnershipDaemon(t *testing.T) *Client {
	t.Helper()
	sys, err := NewSystem(netTestSchema(t), WithListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	c, err := Dial(sys.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
