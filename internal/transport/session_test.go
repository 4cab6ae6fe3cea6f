package transport

import (
	"bufio"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"pleroma/internal/retry"
	"pleroma/internal/space"
	"pleroma/internal/wire"
)

// rawExchange writes one frame on c and reads the response.
func rawExchange(t *testing.T, c net.Conn, br *bufio.Reader, f wire.Frame) wire.Frame {
	t.Helper()
	b, err := wire.AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(b); err != nil {
		t.Fatal(err)
	}
	resp, _, err := wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("read response to %v: %v", f.Kind, err)
	}
	return resp
}

// expectClosed asserts the server closed the connection.
func expectClosed(t *testing.T, c net.Conn, br *bufio.Reader) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.ReadFrame(br, nil); err != io.EOF {
		t.Fatalf("connection still open: read returned %v, want io.EOF", err)
	}
}

// TestSessionGate drives the server with a raw socket: the Hello is the
// protocol's only version check, so no request is served before one
// succeeded, and a refused Hello ends the connection.
func TestSessionGate(t *testing.T) {
	b := newFakeBackend()
	_, addr := startServer(t, b)
	dial := func(t *testing.T) (net.Conn, *bufio.Reader) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, bufio.NewReader(c)
	}
	hello, err := wire.EncodeHello(wire.Hello{ID: "raw"})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("request before hello", func(t *testing.T) {
		c, br := dial(t)
		resp := rawExchange(t, c, br, wire.Frame{Kind: wire.KindRun, Corr: 7})
		if resp.Kind != wire.KindError || resp.Corr != 7 {
			t.Fatalf("got %v corr %d, want an error for corr 7", resp.Kind, resp.Corr)
		}
		expectClosed(t, c, br)
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.runs != 0 {
			t.Fatalf("backend ran %d times for a session that never said hello", b.runs)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		c, br := dial(t)
		bad := append([]byte(nil), hello...)
		bad[0] = wire.Version + 1
		if resp := rawExchange(t, c, br, wire.Frame{Kind: wire.KindHello, Corr: 1, Payload: bad}); resp.Kind != wire.KindError {
			t.Fatalf("got %v, want an error", resp.Kind)
		}
		expectClosed(t, c, br)
	})
	t.Run("hello then request", func(t *testing.T) {
		c, br := dial(t)
		if resp := rawExchange(t, c, br, wire.Frame{Kind: wire.KindHello, Corr: 1, Payload: hello}); resp.Kind != wire.KindHelloOK {
			t.Fatalf("got %v, want hello-ok", resp.Kind)
		}
		if resp := rawExchange(t, c, br, wire.Frame{Kind: wire.KindRun, Corr: 2}); resp.Kind != wire.KindRunDone {
			t.Fatalf("got %v, want run-done", resp.Kind)
		}
	})
}

// TestUndecodableDeliveryIsConnectionLoss scripts a server whose first
// connection pushes one garbage KindDeliverBatch ahead of the Sync
// response. The client must not report that Sync as a clean barrier: it
// treats the hole like a lost connection, redials, replays its
// subscription, and completes the Sync on the second connection.
func TestUndecodableDeliveryIsConnectionLoss(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := wire.AppendDeliverBatch(nil, []wire.Delivery{
		{SubscriptionID: "s1", Event: space.Event{Values: []uint32{7, 8}}, At: 42, Latency: 5},
	}, wire.MaxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	helloOK, err := wire.EncodeHelloOK(wire.HelloOK{Hosts: []uint32{10}, Partitions: []int32{0}})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns int
		syncs int
	)
	var wg sync.WaitGroup
	wg.Add(1)
	defer func() {
		ln.Close()
		wg.Wait()
	}()
	go func() {
		defer wg.Done()
		for n := 1; ; n++ {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed: test over
			}
			mu.Lock()
			conns = n
			mu.Unlock()
			br := bufio.NewReader(c)
			send := func(frames ...wire.Frame) {
				var out []byte
				for _, f := range frames {
					out, _ = wire.AppendFrame(out, f)
				}
				c.Write(out)
			}
			for {
				f, _, err := wire.ReadFrame(br, nil)
				if err != nil {
					break
				}
				switch f.Kind {
				case wire.KindHello:
					send(wire.Frame{Kind: wire.KindHelloOK, Corr: f.Corr, Payload: helloOK})
				case wire.KindSync:
					mu.Lock()
					syncs++
					mu.Unlock()
					push := wire.Frame{Kind: wire.KindDeliverBatch, Payload: good}
					if n == 1 {
						push.Payload = []byte{wire.Version, 0, 1, 0xff}
					}
					send(push, wire.Frame{Kind: wire.KindOK, Corr: f.Corr})
				default:
					send(wire.Frame{Kind: wire.KindOK, Corr: f.Corr})
				}
			}
			c.Close()
		}
	}()

	c, err := Dial(ln.Addr().String(),
		WithClientRetry(retry.Policy{MaxAttempts: 5, BaseBackoff: time.Millisecond, OpDeadline: 5 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []wire.Delivery
	if err := c.Subscribe("s1", 10, nil, func(d wire.Delivery) {
		mu.Lock()
		got = append(got, d)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("sync across the redial: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if conns != 2 || syncs != 2 {
		t.Fatalf("server saw %d connections and %d syncs, want 2 and 2 (the first Sync sat behind a hole)", conns, syncs)
	}
	if len(got) != 1 || got[0].SubscriptionID != "s1" || got[0].At != 42 {
		t.Fatalf("deliveries = %+v, want the one valid delivery of the second connection", got)
	}
}
