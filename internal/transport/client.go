package transport

import (
	"bufio"
	"encoding/binary"
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
// retry.Default: a handful of attempts under capped exponential
// backoff, with OpDeadline bounding each request's wait.
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
			flushes:    newFlushCounterVec(reg),
			frameBytes: newFrameBytesHistogram(reg),
		}
		c.obsReconnects = reg.Counter(obs.MTransportReconnects, "Client redials after a lost transport connection.")
		c.obsWall = reg.Histogram(obs.MClientDeliveryWallLatency,
			"Wall-clock publish-to-delivery latency measured at the subscribing client (skew-free when this client published).",
			obs.DefaultLatencyBuckets...)
		c.obsWindow = reg.Gauge(obs.MTransportPublishWindow, "Outstanding unacked async publishes (window occupancy).")
		c.obsCoalesce = obs.NewCountHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096)
		reg.AttachHistogram(obs.MTransportPublishCoalesced, "Events coalesced per async PublishReq.", "", "", c.obsCoalesce)
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
// methods are safe for concurrent use; requests are correlated by id, so
// several may be in flight at once. A lost connection is redialed under
// the retry policy and every advertisement and subscription re-registered
// before the failed request is retried.
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

	mu      sync.Mutex
	fc      *frameConn
	corr    uint64
	pending map[uint64]chan callResult
	// slots holds the idle call rendezvous (see callSlot), so a blocking
	// call allocates neither its result channel nor its deadline timer.
	slots  []*callSlot
	advs   map[string]registration
	subs   map[string]registration
	regSeq uint64 // arrival counter behind registration.seq
	info   Info
	closed bool
	// pubSeq numbers this client's publishes so the server can deduplicate
	// an at-least-once retry of a publish it already applied.
	pubSeq uint64
	// gen counts established connections; reconnect attempts pass the gen
	// they observed so only one caller redials a given dead connection.
	gen int

	// Pipelined publish state (async.go). winCond signals window credit
	// and completions; apend holds per-publisher coalescing buffers; awin
	// is the FIFO in-flight window; acorr routes acks to window entries;
	// aerr is the sticky pipeline failure.
	winCond   *sync.Cond
	apend     map[string]*pubPending
	awin      []*asyncEntry
	acorr     map[uint64]*asyncEntry
	aerr      error
	redialing bool
	lingerOn  bool
}

// callSlot is what one blocking call waits on: the channel its result
// arrives on and the timer that bounds the wait. A slot goes back to
// Client.slots only after its call received a result — whoever removes a
// pending entry sends on its channel exactly once, so the channel is then
// empty and unreferenced; a call that timed out or failed to send abandons
// its slot, because a result may still be on its way into the channel.
type callSlot struct {
	ch    chan callResult
	timer *time.Timer // nil until a call with an OpDeadline uses the slot
}

// callResult is what a pending call receives: either a response frame
// (including server KindError rejections, which are NOT retried) or a
// transport error (lost connection — retryable).
type callResult struct {
	f   wire.Frame
	err error
}

// Dial connects to a daemon and performs the Hello handshake.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	c := &Client{
		addr:    addr,
		id:      "client",
		retry:   retry.Default,
		pending: make(map[uint64]chan callResult),
		advs:    make(map[string]registration),
		subs:    make(map[string]registration),
		apend:   make(map[string]*pubPending),
		acorr:   make(map[uint64]*asyncEntry),
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
// afterwards, so the round-trips below own the socket). Callers hold c.mu
// and, on success, MUST invoke the returned start function after releasing
// it: start dispatches any deliveries the server pushed mid-handshake
// (they cannot be dispatched under c.mu — handlers may call back into the
// client) and only then spawns the reader goroutine, preserving delivery
// order.
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
	c.gen++
	gen := c.gen
	// Re-send the unacked async publish window, FIFO, while still holding
	// c.mu: the fresh connection's queue is empty, so these frames are
	// guaranteed to precede any retried or new request — preserving the
	// per-publisher sequence order the server's dedup depends on.
	for _, e := range c.awin {
		c.sendEntryLocked(e)
	}
	return func() {
		for _, f := range buffered {
			if !c.dispatchDelivery(f) {
				c.connLost(fc, gen)
				return
			}
		}
		go c.readLoop(fc, br, gen)
	}, nil
}

// readLoop dispatches incoming frames: deliveries to their subscription
// handlers, async publish acks to their window entries, and responses to
// their waiting callers. On a read error — or a pushed frame that does not
// decode, which is a hole in the delivery stream just the same — every
// pending call fails fast, and the next request redials. Frames are read
// into one reusable buffer: delivery decode and ack routing consume the
// payload before the next read, and the one escape path (a pending call's
// response) copies it.
func (c *Client) readLoop(fc *frameConn, br *bufio.Reader, gen int) {
	buf := make([]byte, 0, 4096)
	for {
		var f wire.Frame
		var err error
		if c.opts.ReadTimeout > 0 {
			fc.c.SetReadDeadline(time.Now().Add(c.opts.ReadTimeout))
		}
		f, buf, err = readFrame(br, c.m, buf)
		if err != nil {
			c.connLost(fc, gen)
			return
		}
		switch f.Kind {
		case wire.KindDeliverBatch:
			if !c.dispatchDelivery(f) {
				c.connLost(fc, gen)
				return
			}
		case wire.KindGoodbye:
			c.connLost(fc, gen)
			return
		default:
			c.mu.Lock()
			if e, ok := c.acorr[f.Corr]; ok {
				delete(c.acorr, f.Corr)
				var aerr error
				if f.Kind != wire.KindOK {
					aerr = fmt.Errorf("transport: async publish: %s", respError(f))
				}
				c.completeEntryLocked(e, aerr)
				c.mu.Unlock()
				continue
			}
			ch := c.pending[f.Corr]
			delete(c.pending, f.Corr)
			c.mu.Unlock()
			if ch != nil {
				f.Payload = append([]byte(nil), f.Payload...)
				ch <- callResult{f: f}
			}
		}
	}
}

// dispatchDelivery decodes one KindDeliverBatch frame and dispatches its
// deliveries in order. It reports false when the payload does not decode:
// the caller must treat the connection as lost rather than skip the frame.
func (c *Client) dispatchDelivery(f wire.Frame) bool {
	ds, err := wire.DecodeDeliverBatch(f.Payload)
	if err != nil {
		return false
	}
	for _, d := range ds {
		c.dispatchOne(d)
	}
	return true
}

func (c *Client) dispatchOne(d wire.Delivery) {
	if d.Trace.PubWallNanos != 0 {
		// Client-side wall latency against the echoed publish stamp:
		// skew-free when this client (or this machine) published.
		c.obsWall.Observe(time.Duration(time.Now().UnixNano() - d.Trace.PubWallNanos))
	}
	if c.tracer != nil && d.Trace.TraceID != 0 {
		// Close the loop on the distributed trace: one recv span per
		// delivered event, parented to the span the frame carried.
		c.tracer.StartRemoteSpan(d.Trace.TraceID, d.Trace.SpanID, "recv", d.SubscriptionID).End(nil)
	}
	c.mu.Lock()
	h := c.subs[d.SubscriptionID].handler
	c.mu.Unlock()
	if h != nil {
		h(d)
	}
}

// connLost tears down the given connection generation and fails its
// pending calls so they can retry on a fresh dial. Async window entries
// are NOT failed: they stay queued (their correlations cleared) and the
// redial goroutine re-sends them on the next connection.
func (c *Client) connLost(fc *frameConn, gen int) {
	c.mu.Lock()
	if c.fc != fc || c.gen != gen {
		c.mu.Unlock()
		return
	}
	c.fc = nil
	pend := c.pending
	c.pending = make(map[uint64]chan callResult)
	for corr, e := range c.acorr {
		delete(c.acorr, corr)
		e.corr = 0
	}
	c.ensureRedialLocked()
	c.winCond.Broadcast()
	c.mu.Unlock()
	fc.abort()
	for _, ch := range pend {
		ch <- callResult{err: fmt.Errorf("transport: connection lost")}
	}
}

// respError extracts the server error message from an Error frame.
func respError(f wire.Frame) string {
	if f.Kind == wire.KindError {
		return string(f.Payload)
	}
	return fmt.Sprintf("unexpected response kind %v", f.Kind)
}

// call performs one correlated request/response, redialing (with the
// retry policy's backoff) when the connection is down or lost mid-call.
// Only transport failures are retried; a server KindError response is a
// semantic rejection and is returned immediately for the caller to
// surface.
func (c *Client) call(kind wire.Kind, payload []byte) (wire.Frame, error) {
	pol := c.retry.Normalized()
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			if backoff := pol.Backoff(attempt - 1); backoff > 0 {
				pol.Sleep(backoff)
			}
		}
		resp, err := c.attempt(kind, payload, attempt > 0)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return wire.Frame{}, fmt.Errorf("transport: %d attempts exhausted: %w", pol.MaxAttempts, lastErr)
}

func (c *Client) attempt(kind wire.Kind, payload []byte, isRetry bool) (wire.Frame, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return wire.Frame{}, fmt.Errorf("transport: client closed")
	}
	var start func()
	if c.fc == nil {
		if isRetry {
			c.obsReconnects.Inc()
		}
		var err error
		if start, err = c.connectLocked(); err != nil {
			c.mu.Unlock()
			return wire.Frame{}, err
		}
	}
	fc := c.fc
	c.corr++
	corr := c.corr
	var slot *callSlot
	if n := len(c.slots); n > 0 {
		slot, c.slots = c.slots[n-1], c.slots[:n-1]
	} else {
		slot = &callSlot{ch: make(chan callResult, 1)}
	}
	c.pending[corr] = slot.ch
	c.mu.Unlock()
	if start != nil {
		// Fresh connection: flush handshake-buffered deliveries and start
		// the reader now that c.mu is released (handlers may re-enter the
		// client). Must run before awaiting the response below — the
		// reader is what completes it.
		start()
	}

	if err := fc.send(wire.Frame{Kind: kind, Corr: corr, Payload: payload}); err != nil {
		c.mu.Lock()
		delete(c.pending, corr)
		c.mu.Unlock()
		return wire.Frame{}, err
	}

	var timeout <-chan time.Time
	if d := c.retry.OpDeadline; d > 0 {
		if slot.timer == nil {
			slot.timer = time.NewTimer(d)
		} else {
			slot.timer.Reset(d)
		}
		timeout = slot.timer.C
	}
	select {
	case res := <-slot.ch:
		if slot.timer != nil && !slot.timer.Stop() {
			// Fired while the result was arriving: take the tick out, or the
			// slot's next call would time out at once.
			select {
			case <-slot.timer.C:
			default:
			}
		}
		c.mu.Lock()
		c.slots = append(c.slots, slot)
		c.mu.Unlock()
		if res.err != nil {
			return wire.Frame{}, res.err // transport failure: retryable
		}
		// Server responses — including KindError rejections — complete the
		// call; callers inspect the frame kind.
		return res.f, nil
	case <-timeout:
		c.mu.Lock()
		delete(c.pending, corr)
		c.mu.Unlock()
		return wire.Frame{}, fmt.Errorf("transport: request timed out")
	}
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
	resp, err := c.call(wire.KindControl, b)
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

// Publish injects events from the advertised publisher id. Each publish
// carries a client-assigned sequence number: a reconnect retry re-sends
// the same number, and the server skips publishes it already applied, so
// the at-least-once transport retry applies events at most once.
//
// With a tracer, the publish mints a root span whose context rides the
// request. The frame is encoded exactly once, so a reconnect retry re-sends
// the same bytes: the same sequence number AND the same trace context,
// keeping a deduplicated retry inside a single trace.
func (c *Client) Publish(id string, events []space.Event) error {
	c.mu.Lock()
	// Seal any pending async batch for this publisher first, so a
	// sequential PublishAsync-then-Publish caller sees its events applied
	// in call order (both frames ride the same FIFO, window first).
	if pb := c.apend[id]; pb != nil && len(pb.events) > 0 {
		if err := c.sealLocked(id); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.pubSeq++
	seq := c.pubSeq
	c.mu.Unlock()
	sp, tc := c.startPublishSpan(id)
	req := wire.PublishReq{ID: id, Seq: seq, Events: events, Trace: tc}
	b, err := wire.EncodePublish(req)
	if err != nil {
		sp.End(err)
		return err
	}
	resp, err := c.call(wire.KindPublish, b)
	if err != nil {
		sp.End(err)
		return err
	}
	if resp.Kind != wire.KindOK {
		err = fmt.Errorf("transport: publish %q: %s", id, respError(resp))
		sp.End(err)
		return err
	}
	sp.End(nil)
	return nil
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
	resp, err := c.call(wire.KindRun, nil)
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
	resp, err := c.call(wire.KindSync, nil)
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
	resp, err := c.call(wire.KindDigest, nil)
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KindDigestResult {
		return nil, fmt.Errorf("transport: digest: %s", respError(resp))
	}
	return resp.Payload, nil
}

// Close sends a Goodbye and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	fc := c.fc
	c.fc = nil
	c.winCond.Broadcast() // wake Flush/backpressure waiters: client is gone
	c.mu.Unlock()
	if fc != nil {
		fc.send(wire.Frame{Kind: wire.KindGoodbye})
		fc.close()
	}
	return nil
}
