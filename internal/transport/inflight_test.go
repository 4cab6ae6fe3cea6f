package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pleroma/internal/retry"
	"pleroma/internal/space"
	"pleroma/internal/wire"
)

// TestCloseFailsInflightRequests: Close fails every request in flight. A
// blocking call without a deadline and a Flush, both parked on a backend that
// sits on their publishes, return an error instead of waiting for a response
// that cannot come.
func TestCloseFailsInflightRequests(t *testing.T) {
	b := &blockingBackend{fakeBackend: newFakeBackend(), gate: make(chan struct{})}
	_, addr := startServer(t, b)
	t.Cleanup(func() { close(b.gate) }) // runs first: lets the server stop
	c, err := Dial(addr,
		WithClientRetry(retry.Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond}),
		WithClientOptions(Options{Linger: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	ev := []space.Event{{Values: []uint32{1, 2}}}
	blocking, flushed := make(chan error, 1), make(chan error, 1)
	go func() { blocking <- c.Publish("p", ev) }()
	go func() {
		if err := c.PublishAsync("p", ev); err != nil {
			flushed <- err
			return
		}
		flushed <- c.Flush()
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		parked := len(c.win)
		c.mu.Unlock()
		if parked == 2 {
			break // both publishes are in flight, unanswered
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests in flight after 5s, want the two publishes", parked)
		}
	}
	c.Close()
	for name, ch := range map[string]chan error{"blocking Publish": blocking, "Flush": flushed} {
		select {
		case err := <-ch:
			if err == nil {
				t.Errorf("%s returned nil across Close; its publish was never acknowledged", name)
			}
		case <-time.After(time.Second):
			t.Errorf("%s still waiting 1s after Close", name)
		}
	}
}

// rawDaemon is a raw daemon that completes the handshake and answers every
// request with OK, counting the publishes it read; one started with
// dropPublishes answers no publish but closes the connection instead. It
// reads every frame into one buffer and writes every answer from another,
// so it allocates nothing per frame.
type rawDaemon struct {
	ln    net.Listener
	sends atomic.Int32
	wg    sync.WaitGroup
}

func startRawDaemon(t *testing.T, dropPublishes bool) *rawDaemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	helloOK, err := wire.EncodeHelloOK(wire.HelloOK{Hosts: []uint32{10}, Partitions: []int32{0}})
	if err != nil {
		t.Fatal(err)
	}
	d := &rawDaemon{ln: ln}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		var in, out []byte
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed: test over
			}
			br := bufio.NewReader(c)
			for {
				var f wire.Frame
				f, in, err = wire.ReadFrame(br, in)
				if err != nil {
					break
				}
				if f.Kind == wire.KindPublish {
					d.sends.Add(1)
					if dropPublishes {
						break
					}
				}
				resp := wire.Frame{Kind: wire.KindOK, Corr: f.Corr}
				if f.Kind == wire.KindHello {
					resp = wire.Frame{Kind: wire.KindHelloOK, Corr: f.Corr, Payload: helloOK}
				}
				out, _ = wire.AppendFrame(out[:0], resp)
				if _, err := c.Write(out); err != nil {
					break
				}
			}
			c.Close()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		d.wg.Wait()
	})
	return d
}

// TestResendBoundedPerRequest: a request is sent at most MaxAttempts times. A
// publish that kills every connection it is sent on fails after exactly that
// many sends, on the blocking path and on the pipelined one alike.
func TestResendBoundedPerRequest(t *testing.T) {
	const attempts = 3
	ev := []space.Event{{Values: []uint32{1, 2}}}
	for _, tc := range []struct {
		name    string
		publish func(c *Client) error
	}{
		{"Publish", func(c *Client) error { return c.Publish("p", ev) }},
		{"PublishAsync+Flush", func(c *Client) error {
			if err := c.PublishAsync("p", ev); err != nil {
				return err
			}
			return c.Flush()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := startRawDaemon(t, true)
			c, err := Dial(d.ln.Addr().String(), WithClientRetry(retry.Policy{
				MaxAttempts: attempts, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
				OpDeadline: 2 * time.Second,
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			done := make(chan error, 1)
			go func() { done <- tc.publish(c) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("a publish no connection survives succeeded")
				}
			case <-time.After(3 * time.Second):
				t.Fatalf("still publishing after 3s and %d sends", d.sends.Load())
			}
			if n := d.sends.Load(); n != attempts {
				t.Fatalf("the publish was sent %d times, want %d (MaxAttempts)", n, attempts)
			}
		})
	}
}

// rejectingBackend refuses every publish from the publisher "bad".
type rejectingBackend struct{ *fakeBackend }

func (b rejectingBackend) Publish(req wire.PublishReq) error {
	if req.ID == "bad" {
		return fmt.Errorf("scripted rejection of %q", req.ID)
	}
	return b.fakeBackend.Publish(req)
}

// TestStickyAsyncErrorSparesBlockingCalls: the pipeline's sticky error gates
// PublishAsync, Flush and Err only. After a rejected async publish poisoned
// the pipeline and the connection was lost, a blocking call still redials and
// succeeds — a blocking Publish too, from a publisher whose unsealed events
// the poisoned pipeline will never send — and PublishAsync keeps returning
// the sticky error.
func TestStickyAsyncErrorSparesBlockingCalls(t *testing.T) {
	b := rejectingBackend{newFakeBackend()}
	srv, addr := startServer(t, b)
	c, err := Dial(addr, fastRetry, WithClientOptions(Options{BatchEvents: 2, Linger: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ev := []space.Event{{Values: []uint32{1, 2}}}
	// p1's event waits in its coalescing buffer; "bad" fills a batch of two,
	// which is sent at once and rejected.
	if err := c.PublishAsync("p1", ev); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishAsync("bad", append(ev, ev...)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); c.Err() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the rejected batch never poisoned the pipeline")
		}
	}
	sticky := c.Err()
	if err := c.Flush(); !errors.Is(err, sticky) {
		t.Fatalf("Flush() = %v, want the sticky %v", err, sticky)
	}
	srv.DropConnections()
	if err := c.Advertise("p1", 10, nil); err != nil {
		t.Fatalf("blocking advertise after the drop: %v", err)
	}
	if got := b.controlLog(0); len(got) != 1 || got[0] != "advertise:p1" {
		t.Fatalf("backend saw control ops %v, want the one advertise", got)
	}
	if err := c.Publish("p1", ev); err != nil {
		t.Fatalf("blocking publish on the poisoned pipeline: %v", err)
	}
	if err := c.PublishAsync("p1", ev); !errors.Is(err, sticky) {
		t.Fatalf("PublishAsync after the redial returned %v, want the sticky %v", err, sticky)
	}
	if err := c.Err(); !errors.Is(err, sticky) {
		t.Fatalf("Err() = %v, want the sticky %v", err, sticky)
	}
}

// quietBackend accepts publishes without recording them, so an allocation
// count measures the round trip alone.
type quietBackend struct{ *fakeBackend }

func (quietBackend) Publish(wire.PublishReq) error { return nil }

// TestBlockingCallAllocs caps the allocations of a warmed-up blocking round
// trip, both ends of the loopback connection counted: a Sync, a one-event
// Publish, and a Run that delivers one event to the caller's one
// subscription. The window request, its result channel and its deadline
// timer are reused across calls, each end reads frame headers into its
// reused read buffer, and the server flushes deliveries through its kept
// pending list, so none of them counts.
func TestBlockingCallAllocs(t *testing.T) {
	_, addr := startServer(t, quietBackend{newFakeBackend()})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe("s", 11, nil, func(wire.Delivery) {}); err != nil {
		t.Fatal(err)
	}
	ev := []space.Event{{Values: []uint32{1, 2}}}
	for _, tc := range []struct {
		name string
		call func() error
		want float64
	}{
		{"Sync", c.Sync, 0},
		{"Publish", func() error { return c.Publish("p", ev) }, 3},
		{"Run", func() error { _, err := c.Run(); return err }, 4},
	} {
		for i := 0; i < 100; i++ {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(500, func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations per call", tc.name, allocs)
		if allocs > tc.want {
			t.Errorf("%s: %v allocations per call, want at most %v", tc.name, allocs, tc.want)
		}
	}
}
