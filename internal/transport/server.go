package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"pleroma/internal/obs"
	"pleroma/internal/wire"
)

// Info describes the served deployment to a connecting client.
type Info struct {
	Hosts      []uint32
	Partitions []int32
}

// Backend is the surface a Server exposes over TCP — the control ops,
// publishes, drains and digest the in-process facade drives directly, and
// nothing that reads or writes a switch: the controller behind the backend
// is the only writer of its switches. A Backend is NOT required to be safe
// for concurrent use: the server serializes every call. Delivery callbacks
// registered through Control may fire from any goroutine while a Run call
// is in progress (e.g. shard workers), so the `deliver` sink handed in is
// always safe to call concurrently and never blocks.
type Backend interface {
	// Info reports the deployment's hosts and partitions.
	Info() Info
	// Control applies one of the four signalling ops. For wire.OpSubscribe
	// deliver is non-nil and becomes (or replaces — reconnect semantics)
	// the subscription's event sink. Re-registering an identical
	// advertisement or subscription must be idempotent.
	Control(req wire.ControlReq, deliver func(wire.Delivery)) error
	// Publish injects events from an advertised publisher. The values in
	// req.Events belong to the backend, which may keep them: the server
	// decodes every frame into a fresh array (wire.DecodePublish).
	Publish(req wire.PublishReq) error
	// Run drains pending simulated work and returns the final sim time.
	Run() (time.Duration, error)
	// Digest returns the deterministic digest of the control-plane state
	// across all partitions.
	Digest() ([]byte, error)
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerOptions tunes the server's transport data path (read and write
// deadlines). The zero Options keeps every default.
func WithServerOptions(o Options) ServerOption {
	return func(s *Server) { s.opts = o }
}

// WithServerTracer records a remote span for every traced publish the
// server applies, linked under the client's trace id and re-parenting the
// publication's span context so downstream delivery spans hang off the
// server-side span.
func WithServerTracer(t *obs.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// WithServerObservability attaches the server's transport counters to reg.
func WithServerObservability(reg *obs.Registry) ServerOption {
	return func(s *Server) {
		if reg == nil {
			return
		}
		s.m = connMetrics{
			framesSent: reg.Counter(obs.MTransportFramesSent, "Frames written to transport connections."),
			framesRecv: reg.Counter(obs.MTransportFramesRecv, "Frames read from transport connections."),
			bytesSent:  reg.Counter(obs.MTransportBytesSent, "Bytes written to transport connections."),
			bytesRecv:  reg.Counter(obs.MTransportBytesRecv, "Bytes read from transport connections."),
			writeBatch: newWriteBatchHistogram(reg),
			flushes:    newFlushCounterVec(reg),
			frameBytes: newFrameBytesHistogram(reg),
		}
		s.obsConns = reg.Gauge(obs.MTransportConns, "Live transport connections.")
		s.obsInflight = reg.Gauge(obs.MTransportInflight, "Transport requests currently being served.")
		s.obsBatch = obs.NewCountHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)
		reg.AttachHistogram(obs.MTransportDeliverBatch, "Deliveries coalesced per KindDeliverBatch frame.", "", "", s.obsBatch)
		s.obsDropped = reg.Counter(obs.MTransportDeliveriesDropped, "Deliveries produced for a connection that was gone when their frame was queued.")
	}
}

// Server accepts transport connections and dispatches their requests to a
// Backend, one at a time. Responses and deliveries ride each connection's
// FIFO write queue, so a response enqueued after a burst of deliveries
// acts as a receive barrier for them (the Sync protocol).
type Server struct {
	backend Backend

	// mu serializes Backend calls: the facade System is single-threaded by
	// contract.
	mu sync.Mutex

	opts        Options
	m           connMetrics
	obsConns    *obs.Gauge
	obsInflight *obs.Gauge
	obsBatch    *obs.Histogram
	obsDropped  *obs.Counter
	tracer      *obs.Tracer

	connMu   sync.Mutex
	ln       net.Listener
	conns    map[*frameConn]struct{}
	stopping bool

	// dirty is the set of connections holding unsent coalesced deliveries;
	// every request goroutine flushes it after its backend call returns,
	// before enqueuing its response — the Sync barrier.
	batchMu sync.Mutex
	dirty   map[*frameConn]struct{}

	readers  sync.WaitGroup // one per live connection
	inflight sync.WaitGroup // requests being served (drained on Stop)
}

// NewServer wraps a backend.
func NewServer(b Backend, opts ...ServerOption) *Server {
	s := &Server{backend: b, conns: make(map[*frameConn]struct{}), dirty: make(map[*frameConn]struct{})}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Listen starts serving on addr (e.g. "127.0.0.1:0") and returns the bound
// address. Serving happens on background goroutines; use Stop to shut
// down.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.connMu.Lock()
	if s.stopping {
		s.connMu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("transport: server stopped")
	}
	s.ln = ln
	s.connMu.Unlock()
	s.readers.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.readers.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed by Stop
		}
		fc := newFrameConn(c, s.opts.WriteTimeout, s.m)
		s.connMu.Lock()
		if s.stopping {
			s.connMu.Unlock()
			fc.abort()
			continue
		}
		s.conns[fc] = struct{}{}
		s.connMu.Unlock()
		s.obsConns.Add(1)
		s.readers.Add(1)
		go s.serveConn(fc, c)
	}
}

// Stop shuts the server down gracefully: no new connections are accepted,
// requests already being served finish (their responses and any deliveries
// flush), every connection receives a Goodbye frame, and the sockets
// close.
func (s *Server) Stop() {
	s.connMu.Lock()
	if s.stopping {
		s.connMu.Unlock()
		return
	}
	s.stopping = true
	ln := s.ln
	s.connMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.inflight.Wait() // drain in-flight requests
	s.flushDeliveries()
	s.connMu.Lock()
	conns := make([]*frameConn, 0, len(s.conns))
	for fc := range s.conns {
		conns = append(conns, fc)
	}
	s.connMu.Unlock()
	for _, fc := range conns {
		fc.send(wire.Frame{Kind: wire.KindGoodbye})
		fc.close()
	}
	s.readers.Wait()
}

// DropConnections abruptly severs every live connection without touching
// the listener or the backend — a network partition / daemon-crash
// simulation for the reconnect tests. Queued frames are discarded.
func (s *Server) DropConnections() {
	s.connMu.Lock()
	conns := make([]*frameConn, 0, len(s.conns))
	for fc := range s.conns {
		conns = append(conns, fc)
	}
	s.connMu.Unlock()
	for _, fc := range conns {
		fc.abort()
	}
}

func (s *Server) serveConn(fc *frameConn, c net.Conn) {
	defer s.readers.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, fc)
		s.connMu.Unlock()
		s.batchMu.Lock()
		delete(s.dirty, fc)
		s.batchMu.Unlock()
		s.obsConns.Add(-1)
		fc.close()
	}()
	br := bufio.NewReader(c)
	// Request payloads are decoded before the next read, so one reusable
	// buffer serves the whole connection.
	buf := make([]byte, 0, 4096)
	greeted := false
	for {
		if s.opts.ReadTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		}
		var f wire.Frame
		var err error
		f, buf, err = readFrame(br, s.m, buf)
		if err != nil {
			return
		}
		if f.Kind == wire.KindGoodbye {
			return
		}
		// Session gate: the Hello carries the protocol's only version check,
		// so nothing else is served before one succeeded.
		if !greeted && f.Kind != wire.KindHello {
			resp := errFrame(fmt.Errorf("transport: %v before hello", f.Kind))
			resp.Corr = f.Corr
			fc.send(resp)
			return
		}
		// The stopping check and the inflight Add share the lock Stop sets
		// stopping under, so a request either lands before Stop's drain or
		// is refused — never added to a WaitGroup already being waited on.
		s.connMu.Lock()
		if s.stopping {
			s.connMu.Unlock()
			return
		}
		s.inflight.Add(1)
		s.connMu.Unlock()
		s.obsInflight.Add(1)
		resp := s.handle(fc, f)
		resp.Corr = f.Corr
		// Coalesced deliveries produced by this backend call flush before
		// the response is enqueued, preserving the FIFO receive barrier
		// (Sync) batching would otherwise break.
		s.flushDeliveries()
		err = fc.send(resp)
		s.obsInflight.Add(-1)
		s.inflight.Done()
		if err != nil {
			return
		}
		if f.Kind == wire.KindHello {
			if resp.Kind != wire.KindHelloOK {
				return // refused (version mismatch): the error is queued, close
			}
			greeted = true
		}
	}
}

// flushDeliveries drains every connection's accumulated deliveries into
// KindDeliverBatch frames (chunked under the batch byte budget and
// wire.MaxDeliveries). Callers invoke it after a backend call returns and
// before they enqueue the call's response.
func (s *Server) flushDeliveries() {
	s.batchMu.Lock()
	if len(s.dirty) == 0 {
		s.batchMu.Unlock()
		return
	}
	conns := make([]*frameConn, 0, len(s.dirty))
	for fc := range s.dirty {
		conns = append(conns, fc)
		delete(s.dirty, fc)
	}
	s.batchMu.Unlock()
	for _, fc := range conns {
		s.flushConnDeliveries(fc)
	}
}

func (s *Server) flushConnDeliveries(fc *frameConn) {
	// dmu is held across the swap AND the sends: two request goroutines
	// flushing the same connection cannot interleave chunks, so the
	// delivery stream stays in production order.
	fc.dmu.Lock()
	defer fc.dmu.Unlock()
	batch := fc.dbatch
	for len(batch) > 0 {
		hint := 96 * len(batch)
		if hint > deliverBatchBytes {
			hint = deliverBatchBytes
		}
		buf := getBuf(hint)
		payload, n, err := wire.AppendDeliverBatch(*buf, batch, deliverBatchBytes)
		if err != nil {
			// Backend-produced deliveries always encode; drop defensively.
			putBuf(buf)
			s.obsDropped.Add(uint64(len(batch)))
			break
		}
		*buf = payload
		s.obsBatch.ObserveCount(n)
		// Best effort: a severed connection drops deliveries — counted, the
		// subscription state survives for the reconnect.
		if fc.sendPooled(wire.KindDeliverBatch, 0, buf) != nil {
			s.obsDropped.Add(uint64(n))
		}
		batch = batch[n:]
	}
	// The frames hold encoded copies, so the array serves the next run
	// instead of being regrown by doubling inside the delivery sink — cleared,
	// so it pins no subscription id or value slice; one grown past a frame's
	// worth of deliveries by a burst goes to the GC.
	if cap(fc.dbatch) > wire.MaxDeliveries {
		fc.dbatch = nil
		return
	}
	clear(fc.dbatch)
	fc.dbatch = fc.dbatch[:0]
}

// handle serves one request frame, serialized against all other backend
// work.
func (s *Server) handle(fc *frameConn, f wire.Frame) wire.Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch f.Kind {
	case wire.KindHello:
		if _, err := wire.DecodeHello(f.Payload); err != nil {
			return errFrame(err)
		}
		info := s.backend.Info()
		b, err := wire.EncodeHelloOK(wire.HelloOK{Hosts: info.Hosts, Partitions: info.Partitions})
		if err != nil {
			return errFrame(err)
		}
		return wire.Frame{Kind: wire.KindHelloOK, Payload: b}

	case wire.KindControl:
		req, err := wire.DecodeControlReq(f.Payload)
		if err != nil {
			return errFrame(err)
		}
		var deliver func(wire.Delivery)
		if req.Op == wire.OpSubscribe {
			deliver = func(d wire.Delivery) {
				// Accumulate; the request goroutine that drove this backend
				// call flushes the run as KindDeliverBatch frames before its
				// response.
				fc.dmu.Lock()
				fc.dbatch = append(fc.dbatch, d)
				fc.dmu.Unlock()
				s.batchMu.Lock()
				s.dirty[fc] = struct{}{}
				s.batchMu.Unlock()
			}
		}
		if err := s.backend.Control(req, deliver); err != nil {
			return errFrame(err)
		}
		return wire.Frame{Kind: wire.KindOK}

	case wire.KindPublish:
		req, err := wire.DecodePublish(f.Payload)
		if err != nil {
			return errFrame(err)
		}
		var sp *obs.Span
		if s.tracer != nil && req.Trace.Valid() {
			// Record the server-side publish span under the client's trace
			// and re-parent the context: delivery spans hang off this span,
			// which itself hangs off the client's publish span.
			sp = s.tracer.StartRemoteSpan(req.Trace.TraceID, req.Trace.SpanID, "publish", req.ID)
			if sp != nil {
				req.Trace.SpanID = sp.ID
			}
		}
		err = s.backend.Publish(req)
		sp.End(err)
		if err != nil {
			return errFrame(err)
		}
		return wire.Frame{Kind: wire.KindOK}

	case wire.KindRun:
		now, err := s.backend.Run()
		if err != nil {
			return errFrame(err)
		}
		return wire.Frame{Kind: wire.KindRunDone, Payload: wire.EncodeU64(uint64(now))}

	case wire.KindSync:
		// The OK rides the write queue behind every delivery enqueued
		// before it: receiving it means those deliveries arrived.
		return wire.Frame{Kind: wire.KindOK}

	case wire.KindDigest:
		d, err := s.backend.Digest()
		if err != nil {
			return errFrame(err)
		}
		return wire.Frame{Kind: wire.KindDigestResult, Payload: d}

	default:
		return errFrame(fmt.Errorf("transport: unexpected request kind %v", f.Kind))
	}
}

func errFrame(err error) wire.Frame {
	return wire.Frame{Kind: wire.KindError, Payload: []byte(err.Error())}
}
