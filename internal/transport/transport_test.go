package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pleroma/internal/obs"
	"pleroma/internal/retry"
	"pleroma/internal/space"
	"pleroma/internal/wire"
)

// fakeBackend is a scriptable in-memory Backend recording every call.
type fakeBackend struct {
	mu       sync.Mutex
	controls []wire.ControlReq
	pubs     []wire.PublishReq
	runs     int
	fails    int // rejected control ops (scripted via failOp)
	sinks    map[string]func(wire.Delivery)
	failOp   wire.Op // control op to fail, if any
	// deliverOnSubscribe pushes a delivery synchronously from every
	// subscribe, so the frame lands on the connection before the OK — on a
	// reconnect replay that means mid-handshake.
	deliverOnSubscribe bool
	// subHosts, when set, makes subscribe behave like the daemon: an id
	// that is already registered rebinds on the same host and is refused
	// ("re-registered with different parameters") on another.
	subHosts map[string]uint32
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{sinks: make(map[string]func(wire.Delivery))}
}

func (b *fakeBackend) Info() Info {
	return Info{Hosts: []uint32{10, 11}, Partitions: []int32{0}}
}

func (b *fakeBackend) Control(req wire.ControlReq, deliver func(wire.Delivery)) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if req.Op == b.failOp {
		b.fails++
		return fmt.Errorf("scripted failure for %s", req.Op)
	}
	if host, held := b.subHosts[req.ID]; req.Op == wire.OpSubscribe && held && host != req.Host {
		b.fails++
		return fmt.Errorf("subscription %q re-registered with different parameters", req.ID)
	}
	b.controls = append(b.controls, req)
	if req.Op == wire.OpSubscribe && b.subHosts != nil {
		b.subHosts[req.ID] = req.Host
	}
	if req.Op == "subscribe" {
		b.sinks[req.ID] = deliver
		if b.deliverOnSubscribe {
			deliver(wire.Delivery{SubscriptionID: req.ID, Event: space.Event{Values: []uint32{1, 2}}, At: 9, Latency: 1})
		}
	}
	return nil
}

func (b *fakeBackend) Publish(req wire.PublishReq) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pubs = append(b.pubs, req)
	return nil
}

func (b *fakeBackend) Run() (time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.runs++
	// Deliver one event to every sink, as a real Run would.
	for id, sink := range b.sinks {
		sink(wire.Delivery{SubscriptionID: id, Event: space.Event{Values: []uint32{7, 8}}, At: 42, Latency: 5})
	}
	return time.Duration(b.runs) * time.Millisecond, nil
}

func (b *fakeBackend) Digest() ([]byte, error) { return []byte{0xde, 0xad}, nil }

func startServer(t *testing.T, b Backend, opts ...ServerOption) (*Server, string) {
	t.Helper()
	srv := NewServer(b, opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv, addr.String()
}

func TestClientServerRoundTrip(t *testing.T) {
	b := newFakeBackend()
	reg := obs.NewRegistry()
	_, addr := startServer(t, b, WithServerObservability(reg))
	c, err := Dial(addr, WithClientID("t1"), WithClientObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info := c.Info()
	if len(info.Hosts) != 2 || info.Hosts[0] != 10 {
		t.Fatalf("info = %+v", info)
	}

	var got []wire.Delivery
	var gotMu sync.Mutex
	ranges := []wire.Range{{Attr: "x", Lo: 0, Hi: 99}}
	if err := c.Advertise("p1", 10, ranges); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("s1", 11, ranges, func(d wire.Delivery) {
		gotMu.Lock()
		got = append(got, d)
		gotMu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("p1", []space.Event{{Values: []uint32{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	now, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if now != time.Millisecond {
		t.Fatalf("run returned %v, want 1ms", now)
	}
	// Sync flushes the delivery enqueued during Run.
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	gotMu.Lock()
	n := len(got)
	gotMu.Unlock()
	if n != 1 || got[0].SubscriptionID != "s1" || got[0].At != 42 {
		t.Fatalf("deliveries after sync: %+v", got)
	}

	d, err := c.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 || d[0] != 0xde {
		t.Fatalf("digest = %x", d)
	}

	if err := c.Unsubscribe("s1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unadvertise("p1"); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	ops := make([]wire.Op, 0, len(b.controls))
	for _, r := range b.controls {
		ops = append(ops, r.Op)
	}
	b.mu.Unlock()
	want := []wire.Op{wire.OpAdvertise, wire.OpSubscribe, wire.OpUnsubscribe, wire.OpUnadvertise}
	if len(ops) != len(want) {
		t.Fatalf("backend saw %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("backend saw %v, want %v", ops, want)
		}
	}
	var framesSent float64
	for _, fam := range reg.Snapshot().Families {
		if fam.Name == obs.MTransportFramesSent {
			for _, s := range fam.Samples {
				framesSent += s.Value
			}
		}
	}
	if framesSent == 0 {
		t.Fatal("transport frame counters not incremented")
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	b := newFakeBackend()
	b.failOp = "advertise"
	_, addr := startServer(t, b)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Advertise("p1", 10, nil)
	if err == nil {
		t.Fatal("scripted backend failure did not propagate")
	}
	// The failed advertise must NOT be recorded for reconnect replay.
	c.mu.Lock()
	n := len(c.advs)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("failed advertise recorded in replay registry (%d entries)", n)
	}
}

func TestClientReconnectReplaysRegistrations(t *testing.T) {
	b := newFakeBackend()
	srv, addr := startServer(t, b)
	c, err := Dial(addr, WithClientRetry(retry.Policy{
		MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
		OpDeadline: time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ranges := []wire.Range{{Attr: "x", Lo: 1, Hi: 9}}
	if err := c.Advertise("p1", 10, ranges); err != nil {
		t.Fatal(err)
	}
	var n int
	var nMu sync.Mutex
	if err := c.Subscribe("s1", 11, ranges, func(wire.Delivery) {
		nMu.Lock()
		n++
		nMu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	// Sever the connection: the next call must redial, replay the
	// advertise and subscribe, then serve the request.
	srv.DropConnections()
	if err := c.Publish("p1", []space.Event{{Values: []uint32{3, 4}}}); err != nil {
		t.Fatalf("publish after drop: %v", err)
	}
	b.mu.Lock()
	ops := make([]string, 0, len(b.controls))
	for _, r := range b.controls {
		ops = append(ops, string(r.Op)+":"+r.ID)
	}
	pubs := len(b.pubs)
	b.mu.Unlock()
	want := []string{"advertise:p1", "subscribe:s1", "advertise:p1", "subscribe:s1"}
	if len(ops) != len(want) {
		t.Fatalf("control ops %v, want %v (original + replay)", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("control ops %v, want %v", ops, want)
		}
	}
	if pubs != 1 {
		t.Fatalf("%d publishes reached the backend, want 1", pubs)
	}
	// Deliveries still flow to the rebound sink after reconnect.
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	nMu.Lock()
	defer nMu.Unlock()
	if n != 1 {
		t.Fatalf("deliveries after reconnect = %d, want 1", n)
	}
}

// TestDeliveryDuringReconnectHandshake guards against a reconnect
// self-deadlock: as soon as a replayed subscribe rebinds its sink, the
// server may push deliveries onto the new connection while the client is
// still mid-handshake holding its mutex. Those frames must be buffered
// and dispatched after the handshake — neither dropped nor dispatched
// under the lock.
func TestDeliveryDuringReconnectHandshake(t *testing.T) {
	b := newFakeBackend()
	b.deliverOnSubscribe = true
	srv, addr := startServer(t, b)
	c, err := Dial(addr, WithClientRetry(retry.Policy{
		MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
		OpDeadline: 2 * time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var mu sync.Mutex
	n := 0
	if err := c.Subscribe("s1", 11, nil, func(wire.Delivery) {
		mu.Lock()
		n++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	before := n
	mu.Unlock()
	if before != 1 {
		t.Fatalf("deliveries after subscribe: %d, want 1", before)
	}

	// Sever the connection: the next call redials and replays the
	// subscribe, and the replay pushes a delivery before the handshake
	// completes.
	srv.DropConnections()
	done := make(chan error, 1)
	go func() { done <- c.Sync() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sync after drop: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client deadlocked dispatching a mid-handshake delivery")
	}
	mu.Lock()
	after := n
	mu.Unlock()
	if after != 2 {
		t.Fatalf("deliveries after reconnect: %d, want 2 (handshake delivery dispatched)", after)
	}
}

// TestServerErrorNotRetried: a semantic backend rejection is not a
// transport failure — it must surface on the first attempt instead of
// burning the retry budget on an op the server will never accept.
func TestServerErrorNotRetried(t *testing.T) {
	b := newFakeBackend()
	b.failOp = "advertise"
	_, addr := startServer(t, b)
	c, err := Dial(addr, WithClientRetry(retry.Policy{
		MaxAttempts: 5, BaseBackoff: time.Millisecond, OpDeadline: time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Advertise("p1", 10, nil); err == nil {
		t.Fatal("scripted rejection did not propagate")
	}
	b.mu.Lock()
	fails := b.fails
	b.mu.Unlock()
	if fails != 1 {
		t.Fatalf("backend saw %d attempts of a rejected advertise, want 1", fails)
	}
}

func TestClientRetryExhaustion(t *testing.T) {
	b := newFakeBackend()
	srv, addr := startServer(t, b)
	c, err := Dial(addr, WithClientRetry(retry.Policy{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, OpDeadline: 100 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Stop() // server gone for good: no listener to redial
	if err := c.Advertise("p", 10, nil); err == nil {
		t.Fatal("calls against a dead server must fail after retries")
	}
}

// gatedRunBackend holds Run inside the backend call, entered signalled,
// until gate closes.
type gatedRunBackend struct {
	*fakeBackend
	entered, gate chan struct{}
}

func (b *gatedRunBackend) Run() (time.Duration, error) {
	close(b.entered)
	<-b.gate
	return b.fakeBackend.Run()
}

// TestGracefulStopDrainsInflight: Stop called while a request is inside its
// backend call lets it finish. The client's Run returns RunDone, the
// delivery that Run produced arrives before it, and both arrive before the
// Goodbye — a Goodbye first would fail the Run, whose retry finds no
// listener. Later calls fail rather than hang.
func TestGracefulStopDrainsInflight(t *testing.T) {
	b := &gatedRunBackend{fakeBackend: newFakeBackend(), entered: make(chan struct{}), gate: make(chan struct{})}
	srv, addr := startServer(t, b)
	c, err := Dial(addr, WithClientRetry(retry.Policy{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, OpDeadline: 2 * time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var delivered atomic.Int64
	if err := c.Subscribe("s1", 11, nil, func(wire.Delivery) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	type result struct {
		delivered int64
		err       error
	}
	ran := make(chan result, 1)
	go func() {
		_, err := c.Run()
		ran <- result{delivered.Load(), err}
	}()
	<-b.entered
	stopped := make(chan struct{})
	go func() {
		srv.Stop()
		close(stopped)
	}()
	// Stop waits for the backend call; give it time to get there.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-stopped:
		t.Fatal("Stop returned while a request was inside its backend call")
	default:
	}
	close(b.gate)
	select {
	case r := <-ran:
		if r.err != nil {
			t.Fatalf("Run in flight across Stop: %v, want RunDone", r.err)
		}
		if r.delivered != 1 {
			t.Fatalf("%d deliveries when Run returned, want its 1", r.delivered)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run in flight across Stop never returned")
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return")
	}
	if err := c.Sync(); err == nil {
		t.Fatal("sync against a stopped server must fail")
	}
}

// TestSecondListenFails: a server listens once. A second Listen is refused
// (it would leave the first listener's accept loop outside Stop's reach),
// Stop returns, and a Listen after Stop is refused.
func TestSecondListenFails(t *testing.T) {
	srv := NewServer(newFakeBackend())
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("a second Listen succeeded")
	}
	stopped := make(chan struct{})
	go func() {
		srv.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop blocked after a second Listen")
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("Listen after Stop succeeded")
	}
}
