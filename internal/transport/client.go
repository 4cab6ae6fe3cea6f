package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"pleroma/internal/obs"
	"pleroma/internal/retry"
	"pleroma/internal/sortutil"
	"pleroma/internal/space"
	"pleroma/internal/wire"
)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClientID names the client in its Hello (diagnostics only).
func WithClientID(id string) ClientOption {
	return func(c *Client) { c.id = id }
}

// WithClientRetry sets the reconnect/backoff policy. The zero default is
// retry.Default. After a lost connection the client redials up to
// MaxAttempts times under capped exponential backoff; a request is sent at
// most MaxAttempts times, and fails when the connection carrying its last
// send is lost. OpDeadline bounds a blocking call's whole wait, from the
// call to its response: on expiry the request leaves the in-flight window
// and the call returns "request timed out". An expired request is not sent
// again on the same connection — the server answers one connection's frames
// in order, so a second copy would only queue behind the first.
func WithClientRetry(p retry.Policy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// WithClientOptions tunes the client's transport data path: deadlines,
// the async publish window, and the coalescing thresholds. The zero
// Options keeps every default.
func WithClientOptions(o Options) ClientOption {
	return func(c *Client) { c.opts = o }
}

// WithClientObservability attaches the client's transport counters to reg.
func WithClientObservability(reg *obs.Registry) ClientOption {
	return func(c *Client) {
		if reg == nil {
			return
		}
		c.m = connMetrics{
			framesSent: reg.Counter(obs.MTransportFramesSent, "Frames written to transport connections."),
			framesRecv: reg.Counter(obs.MTransportFramesRecv, "Frames read from transport connections."),
			bytesSent:  reg.Counter(obs.MTransportBytesSent, "Bytes written to transport connections."),
			bytesRecv:  reg.Counter(obs.MTransportBytesRecv, "Bytes read from transport connections."),
			writeBatch: newWriteBatchHistogram(reg),
			flushes:    newFlushVec(reg),
			frameBytes: newFrameBytesHistogram(reg),
		}
		c.obsReconnects = reg.Counter(obs.MTransportReconnects, "Client redials after a lost transport connection.")
		c.obsWall = reg.Histogram(obs.MClientDeliveryWallLatency,
			"Wall-clock publish-to-delivery latency measured at the subscribing client (skew-free when this client published).",
			obs.DefaultLatencyBuckets...)
		c.obsWindow = reg.Gauge(obs.MTransportPublishWindow, "Requests in flight on the client's window (occupancy): publishes, control ops, run, sync and digest.")
		c.obsCoalesce = obs.NewCountHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096)
		reg.Attach(obs.MTransportPublishCoalesced, "Events coalesced per async PublishReq.", c.obsCoalesce)
	}
}

// WithClientTracer enables distributed tracing: the client mints a span
// per publish whose context rides the publish frame, and links incoming
// traced deliveries back to their publish span.
func WithClientTracer(t *obs.Tracer) ClientOption {
	return func(c *Client) { c.tracer = t }
}

// registration is one advertisement or subscription the client holds,
// keyed by id in Client.advs / Client.subs. A reconnect replays them in
// arrival order (seq): the server treats identical re-registration as an
// idempotent rebind, leaving journal and digest untouched. seq is zero while
// the registering call is in flight — deliveries already find the handler,
// a replay does not yet include it.
type registration struct {
	seq     uint64
	host    uint32
	ranges  []wire.Range
	handler func(wire.Delivery) // subscriptions only
}

// Client is one process's connection to a pleroma-d daemon. All exported
// methods are safe for concurrent use. Every request — control ops,
// blocking and pipelined publishes, run, sync and digest — is one entry of
// a single in-flight window, sent in FIFO order and correlated by id, so
// several may be in flight at once; a blocking call waits on its entry. A
// lost connection is redialed under the retry policy, every advertisement
// and subscription re-registered, and then the window re-sent in order.
type Client struct {
	addr  string
	id    string
	retry retry.Policy
	opts  Options
	m     connMetrics

	obsReconnects *obs.Counter
	obsWall       *obs.Histogram
	obsWindow     *obs.Gauge
	obsCoalesce   *obs.Histogram
	tracer        *obs.Tracer

	mu     sync.Mutex
	fc     *frameConn
	corr   uint64
	advs   map[string]registration
	subs   map[string]registration
	regSeq uint64 // arrival counter behind registration.seq
	info   Info
	closed bool
	// pubSeq numbers this client's publishes so the server can deduplicate
	// a re-sent publish it already applied.
	pubSeq uint64

	// The in-flight window (async.go). win is the FIFO of requests sent or
	// waiting for a connection; byCorr routes responses to them; free holds
	// finished requests for reuse; winCond signals window credit and
	// completions. apend holds per-publisher coalescing buffers, kept
	// emptied between seals; aerr is the sticky failure of the pipelined
	// publish path.
	win       []*request
	byCorr    map[uint64]*request
	free      []*request
	winCond   *sync.Cond
	apend     map[string]*wire.PublishBuffer
	aerr      error
	redialing bool
	lingerOn  bool
}

var (
	errClientClosed = errors.New("transport: client closed")
	errTimedOut     = errors.New("transport: request timed out")
)

// Dial connects to a daemon and performs the Hello handshake.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	c := &Client{
		addr:   addr,
		id:     "client",
		retry:  retry.Default,
		advs:   make(map[string]registration),
		subs:   make(map[string]registration),
		apend:  make(map[string]*wire.PublishBuffer),
		byCorr: make(map[uint64]*request),
	}
	c.winCond = sync.NewCond(&c.mu)
	for _, opt := range opts {
		opt(c)
	}
	c.mu.Lock()
	start, err := c.connectLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	start()
	return c, nil
}

// connectLocked dials, handshakes, and replays registrations, all
// synchronously on the fresh connection (its reader goroutine starts only
// afterwards, so the round-trips below own the socket). Its callers are
// Dial and the redial goroutine; they hold c.mu and, on success, MUST
// invoke the returned start function after releasing it: start dispatches
// any deliveries the server pushed mid-handshake (they cannot be dispatched
// under c.mu — handlers may call back into the client) and only then
// spawns the reader goroutine, preserving delivery order.
func (c *Client) connectLocked() (start func(), err error) {
	raw, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(raw)
	// Deliveries arriving during the handshake (the replayed subscribes
	// rebind the server-side sinks to this connection, so another client's
	// Run may already be pushing) are buffered and dispatched by start.
	var buffered []wire.Frame
	rt := func(f wire.Frame) (wire.Frame, error) {
		b, err := wire.AppendFrame(nil, f)
		if err != nil {
			return wire.Frame{}, err
		}
		if c.retry.OpDeadline > 0 {
			raw.SetDeadline(time.Now().Add(c.retry.OpDeadline))
		}
		if _, err := raw.Write(b); err != nil {
			return wire.Frame{}, err
		}
		for {
			resp, _, err := readFrame(br, c.m, nil)
			if err != nil {
				return wire.Frame{}, err
			}
			if resp.Kind == wire.KindDeliverBatch {
				buffered = append(buffered, resp)
				continue
			}
			return resp, nil
		}
	}

	hb, err := wire.EncodeHello(wire.Hello{ID: c.id})
	if err != nil {
		raw.Close()
		return nil, err
	}
	resp, err := rt(wire.Frame{Kind: wire.KindHello, Corr: 1, Payload: hb})
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	if resp.Kind != wire.KindHelloOK {
		raw.Close()
		return nil, fmt.Errorf("transport: hello rejected: %s", respError(resp))
	}
	hello, err := wire.DecodeHelloOK(resp.Payload)
	if err != nil {
		raw.Close()
		return nil, err
	}
	c.info = Info{Hosts: hello.Hosts, Partitions: hello.Partitions}

	// Replay registrations in arrival order. On the server these are
	// idempotent rebinds: control state, journal, and digests are
	// untouched when the parameters match what it already holds.
	corr := uint64(1)
	replay := func(op wire.Op, id string, host uint32, ranges []wire.Range) error {
		corr++
		b, err := wire.EncodeControlReq(wire.ControlReq{Op: op, ID: id, Host: host, Ranges: ranges})
		if err != nil {
			return err
		}
		resp, err := rt(wire.Frame{Kind: wire.KindControl, Corr: corr, Payload: b})
		if err != nil {
			return err
		}
		if resp.Kind != wire.KindOK {
			return fmt.Errorf("transport: replay %s %q: %s", op, id, respError(resp))
		}
		return nil
	}
	for _, id := range inArrivalOrder(c.advs) {
		a := c.advs[id]
		if err := replay(wire.OpAdvertise, id, a.host, a.ranges); err != nil {
			raw.Close()
			return nil, err
		}
	}
	for _, id := range inArrivalOrder(c.subs) {
		s := c.subs[id]
		if err := replay(wire.OpSubscribe, id, s.host, s.ranges); err != nil {
			raw.Close()
			return nil, err
		}
	}

	raw.SetDeadline(time.Time{})
	wt := c.retry.OpDeadline
	if c.opts.WriteTimeout > 0 {
		wt = c.opts.WriteTimeout
	}
	fc := newFrameConn(raw, wt, c.m)
	c.fc = fc
	c.corr = corr
	// Re-send the window, FIFO, while still holding c.mu: the fresh
	// connection's queue is empty, so these frames precede any new request —
	// preserving the per-publisher sequence order the server's dedup
	// depends on.
	for _, r := range c.win {
		c.sendLocked(r)
	}
	return func() {
		for _, f := range buffered {
			if _, ok := c.dispatchDelivery(nil, f); !ok {
				c.connLost(fc)
				return
			}
		}
		go c.readLoop(fc, br)
	}, nil
}

// readLoop dispatches incoming frames: deliveries to their subscription
// handlers, responses to their window entries. A read error — or a pushed
// frame that does not decode, which is a hole in the delivery stream just
// the same — is a lost connection. Frames are read into one reusable
// buffer: delivery decode and ack routing consume the payload before the
// next read, and the one escape path (a blocking caller's response) copies
// it.
func (c *Client) readLoop(fc *frameConn, br *bufio.Reader) {
	buf := make([]byte, 0, 4096)
	var ds []wire.Delivery // dispatchDelivery's decode storage, kept across frames
	for {
		var f wire.Frame
		var err error
		if c.opts.ReadTimeout > 0 {
			fc.c.SetReadDeadline(time.Now().Add(c.opts.ReadTimeout))
		}
		f, buf, err = readFrame(br, c.m, buf)
		if err != nil {
			c.connLost(fc)
			return
		}
		switch f.Kind {
		case wire.KindDeliverBatch:
			var ok bool
			if ds, ok = c.dispatchDelivery(ds, f); !ok {
				c.connLost(fc)
				return
			}
		case wire.KindGoodbye:
			c.connLost(fc)
			return
		default:
			c.mu.Lock()
			if r := c.byCorr[f.Corr]; r != nil {
				if r.waiting {
					f.Payload = append([]byte(nil), f.Payload...)
				}
				c.finishLocked(r, f, nil)
			}
			c.mu.Unlock()
		}
	}
}

// dispatchDelivery decodes one KindDeliverBatch frame into ds's storage and
// dispatches its deliveries in order. It returns the storage for the next
// frame: cleared, so it pins no delivery's values (a handler may keep
// them), or nil when a burst grew it past one frame's worth
// (wire.MaxDeliveries). It reports false when the payload does not decode:
// the caller must treat the connection as lost rather than skip the frame.
func (c *Client) dispatchDelivery(ds []wire.Delivery, f wire.Frame) ([]wire.Delivery, bool) {
	ds, err := wire.DecodeDeliverBatchTo(ds, f.Payload)
	if err != nil {
		return nil, false
	}
	for _, d := range ds {
		c.dispatchOne(d)
	}
	if cap(ds) > wire.MaxDeliveries {
		return nil, true
	}
	clear(ds)
	return ds[:0], true
}

func (c *Client) dispatchOne(d wire.Delivery) {
	if d.PubWallNanos != 0 {
		// Client-side wall latency against the echoed publish stamp:
		// skew-free when this client (or this machine) published.
		d.WallLatency = time.Duration(time.Now().UnixNano() - d.PubWallNanos)
		c.obsWall.Observe(d.WallLatency)
	}
	if c.tracer != nil && d.TraceID != 0 {
		// Close the loop on the distributed trace: one recv span per
		// delivered event, parented to the span the frame carried.
		c.tracer.StartRemoteSpan(d.TraceID, d.SpanID, "recv", d.SubscriptionID).End(nil)
	}
	c.mu.Lock()
	h := c.subs[d.SubscriptionID].handler
	c.mu.Unlock()
	if h != nil {
		h(d)
	}
}

// connLost tears down the given connection. Its requests stay in the
// window, their correlations cleared, for the redial goroutine to re-send —
// except a request whose last allowed send this connection carried: it
// fails.
func (c *Client) connLost(fc *frameConn) {
	c.mu.Lock()
	if c.fc != fc {
		c.mu.Unlock()
		return
	}
	c.fc = nil
	clear(c.byCorr)
	maxSends := c.retry.Normalized().MaxAttempts
	for i := len(c.win) - 1; i >= 0; i-- { // finishLocked shifts what follows i
		r := c.win[i]
		r.corr = 0
		if r.sends >= maxSends {
			c.finishLocked(r, wire.Frame{}, fmt.Errorf("transport: connection lost after %d sends", r.sends))
		}
	}
	c.ensureRedialLocked()
	c.mu.Unlock()
	fc.abort()
}

// respError extracts the server error message from an Error frame.
func respError(f wire.Frame) string {
	if f.Kind == wire.KindError {
		return string(f.Payload)
	}
	return fmt.Sprintf("unexpected response kind %v", f.Kind)
}

// roundTrip sends one request through the window and waits for its
// response. Server responses — KindError rejections included, which are not
// re-sent — come back as frames for the caller to inspect; a failed request
// comes back as its error.
func (c *Client) roundTrip(kind wire.Kind, payload []byte) (wire.Frame, error) {
	c.mu.Lock()
	r, ok := c.admitLocked()
	if ok {
		r.kind, r.payload = kind, payload
		c.enqueueLocked(r)
	}
	c.mu.Unlock()
	return c.await(r)
}

// Info returns the deployment description from the Hello handshake.
func (c *Client) Info() Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.info
}

func (c *Client) control(op wire.Op, id string, host uint32, ranges []wire.Range) error {
	b, err := wire.EncodeControlReq(wire.ControlReq{Op: op, ID: id, Host: host, Ranges: ranges})
	if err != nil {
		return err
	}
	resp, err := c.roundTrip(wire.KindControl, b)
	if err != nil {
		return err
	}
	if resp.Kind != wire.KindOK {
		return fmt.Errorf("transport: %s %q: %s", op, id, respError(resp))
	}
	return nil
}

// Advertise announces a publisher's region (attribute ranges) on a host.
func (c *Client) Advertise(id string, host uint32, ranges []wire.Range) error {
	return c.register(wire.OpAdvertise, c.advs, id, registration{host: host, ranges: ranges})
}

// Unadvertise withdraws an advertisement.
func (c *Client) Unadvertise(id string) error {
	return c.unregister(wire.OpUnadvertise, c.advs, id)
}

// Subscribe registers a subscription; handler fires on the client's reader
// goroutine for every delivered event.
func (c *Client) Subscribe(id string, host uint32, ranges []wire.Range, handler func(wire.Delivery)) error {
	return c.register(wire.OpSubscribe, c.subs, id, registration{host: host, ranges: ranges, handler: handler})
}

// Unsubscribe withdraws a subscription.
func (c *Client) Unsubscribe(id string) error {
	return c.unregister(wire.OpUnsubscribe, c.subs, id)
}

// register performs one advertise/subscribe round-trip and, once the server
// accepted it, records reg under id for reconnect replay. Deliveries can
// overtake the response, so a subscription's handler is in place for the
// duration of the call: over the registration id already holds, which keeps
// its place in the arrival order (the server only accepts an identical
// re-registration) and comes back unchanged if the server refuses.
func (c *Client) register(op wire.Op, regs map[string]registration, id string, reg registration) error {
	c.mu.Lock()
	prev, held := regs[id]
	during := prev
	during.handler = reg.handler
	regs[id] = during
	c.mu.Unlock()
	err := c.control(op, id, reg.host, reg.ranges)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err != nil && held:
		regs[id] = prev
	case err != nil:
		delete(regs, id)
	default:
		if reg.seq = prev.seq; reg.seq == 0 {
			c.regSeq++
			reg.seq = c.regSeq
		}
		regs[id] = reg
	}
	return err
}

// unregister performs one unadvertise/unsubscribe round-trip and forgets id.
func (c *Client) unregister(op wire.Op, regs map[string]registration, id string) error {
	if err := c.control(op, id, 0, nil); err != nil {
		return err
	}
	c.mu.Lock()
	delete(regs, id)
	c.mu.Unlock()
	return nil
}

// inArrivalOrder returns the ids of the accepted registrations, oldest first.
func inArrivalOrder(regs map[string]registration) []string {
	ids := sortutil.KeysBy(regs, func(r registration) uint64 { return r.seq })
	return slices.DeleteFunc(ids, func(id string) bool { return regs[id].seq == 0 })
}

// Publish injects events from the advertised publisher id as one request
// and waits for its acknowledgement. Each publish carries a client-assigned
// sequence number, taken in the critical section that appends it to the
// window and queues its frame (async.go, rule 1): a re-send after a
// reconnect repeats the number, and the server skips publishes it already
// applied, so events are applied at most once.
//
// With a tracer, the publish mints a root span whose context rides the
// request. The frame is encoded exactly once, so a re-send carries the same
// bytes: the same sequence number AND the same trace context, keeping a
// deduplicated re-send inside a single trace.
func (c *Client) Publish(id string, events []space.Event) error {
	sp, tc := c.startPublishSpan(id)
	c.mu.Lock()
	// Seal any pending async batch for this publisher first, so a
	// sequential PublishAsync-then-Publish caller sees its events applied
	// in call order (both ride the window, the batch first).
	if err := c.sealLocked(id); err != nil {
		c.mu.Unlock()
		sp.End(err)
		return err
	}
	r, ok := c.admitLocked()
	if ok {
		payload, err := wire.EncodePublish(wire.PublishReq{ID: id, Seq: c.pubSeq + 1, Events: events, Trace: tc})
		if err != nil {
			c.finishLocked(r, wire.Frame{}, err)
		} else {
			c.pubSeq++
			r.kind, r.payload = wire.KindPublish, payload
			c.enqueueLocked(r)
		}
	}
	c.mu.Unlock()
	resp, err := c.await(r)
	if err == nil && resp.Kind != wire.KindOK {
		err = fmt.Errorf("transport: publish %q: %s", id, respError(resp))
	}
	sp.End(err)
	return err
}

// startPublishSpan mints the root span of one publish and the trace
// context that rides its request; both zero without a tracer.
func (c *Client) startPublishSpan(id string) (*obs.Span, wire.TraceContext) {
	sp := c.tracer.StartSpan("publish", id) // nil-safe
	if sp == nil {
		return nil, wire.TraceContext{}
	}
	return sp, wire.TraceContext{TraceID: sp.TraceID, SpanID: sp.ID, PubWallNanos: time.Now().UnixNano()}
}

// Run drains the daemon's pending simulated work and returns the final
// simulated time — the remote form of System.Run.
func (c *Client) Run() (time.Duration, error) {
	resp, err := c.roundTrip(wire.KindRun, nil)
	if err != nil {
		return 0, err
	}
	if resp.Kind != wire.KindRunDone || len(resp.Payload) != 8 {
		return 0, fmt.Errorf("transport: run: %s", respError(resp))
	}
	return time.Duration(binary.BigEndian.Uint64(resp.Payload)), nil
}

// Sync waits until every delivery the daemon enqueued for this client
// before the Sync has been received and dispatched: the OK response rides
// the same FIFO behind them.
func (c *Client) Sync() error {
	resp, err := c.roundTrip(wire.KindSync, nil)
	if err != nil {
		return err
	}
	if resp.Kind != wire.KindOK {
		return fmt.Errorf("transport: sync: %s", respError(resp))
	}
	return nil
}

// Digest returns the daemon's control-plane state digest.
func (c *Client) Digest() ([]byte, error) {
	resp, err := c.roundTrip(wire.KindDigest, nil)
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KindDigestResult {
		return nil, fmt.Errorf("transport: digest: %s", respError(resp))
	}
	return resp.Payload, nil
}

// Close fails every request in flight with "client closed" — blocking
// callers wake with it, and a failed pipelined publish makes it the sticky
// error Flush returns — then sends a Goodbye and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	fc := c.fc
	c.fc = nil
	c.failWindowLocked(errClientClosed)
	c.winCond.Broadcast() // wake credit waiters: the client is gone
	c.mu.Unlock()
	if fc != nil {
		fc.send(wire.Frame{Kind: wire.KindGoodbye})
		fc.close()
	}
	return nil
}
