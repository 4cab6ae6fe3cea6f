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
// for concurrent use: the server serializes every call. A delivery sink
// registered through Control may fire from any goroutine while a backend
// call is in progress (e.g. shard workers during Run), so the `deliver`
// sink handed in is safe to call concurrently and never blocks. It must
// never fire after the call that produced the delivery has returned: the
// server flushes what the sinks collected as that call's last step, and a
// delivery arriving later misses its call's response barrier.
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
			flushes:    newFlushVec(reg),
			frameBytes: newFrameBytesHistogram(reg),
		}
		s.obsConns = reg.Gauge(obs.MTransportConns, "Live transport connections.")
		s.obsInflight = reg.Gauge(obs.MTransportInflight, "Transport requests currently being served.")
		s.obsBatch = obs.NewCountHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)
		reg.Attach(obs.MTransportDeliverBatch, "Deliveries coalesced per KindDeliverBatch frame.", s.obsBatch)
		s.obsDropped = reg.Counter(obs.MTransportDeliveriesDropped, "Deliveries produced for a connection that was gone when their frame was queued.")
	}
}

// Server accepts transport connections and dispatches their requests to a
// Backend, one at a time. Responses and deliveries ride each connection's
// FIFO write queue, and a request's response is enqueued behind every
// delivery produced before it (answer): the Sync protocol's receive
// barrier.
type Server struct {
	backend Backend

	// mu serializes Backend calls (the facade System is single-threaded by
	// contract) and the delivery flushes, and guards ln, conns and stopping.
	mu       sync.Mutex
	ln       net.Listener
	conns    map[*frameConn]struct{}
	stopping bool

	opts        Options
	m           connMetrics
	obsConns    *obs.Gauge
	obsInflight *obs.Gauge
	obsBatch    *obs.Histogram
	obsDropped  *obs.Counter
	tracer      *obs.Tracer

	// sinkMu guards pending, the connections whose dbatch is non-empty, and
	// every dbatch: under WithShards the delivery sinks fire concurrently
	// on shard workers.
	sinkMu  sync.Mutex
	pending []*frameConn

	readers sync.WaitGroup // the accept loop and one per live connection
}

// NewServer wraps a backend.
func NewServer(b Backend, opts ...ServerOption) *Server {
	s := &Server{backend: b, conns: make(map[*frameConn]struct{})}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Listen starts serving on addr (e.g. "127.0.0.1:0") and returns the bound
// address. Serving happens on background goroutines; use Stop to shut
// down. A server listens once: a second Listen, or one after Stop, fails.
func (s *Server) Listen(addr string) (net.Addr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return nil, fmt.Errorf("transport: server stopped")
	}
	if s.ln != nil {
		return nil, fmt.Errorf("transport: server already listening on %v", s.ln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
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
		s.mu.Lock()
		if s.stopping {
			s.mu.Unlock()
			fc.abort()
			continue
		}
		s.conns[fc] = struct{}{}
		s.readers.Add(1)
		s.mu.Unlock()
		s.obsConns.Add(1)
		go s.serveConn(fc, c)
	}
}

// Stop shuts the server down gracefully: no new connections are accepted,
// the request being served finishes (its deliveries and response queue),
// later ones are refused, every connection receives a Goodbye frame, and
// the sockets close.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return
	}
	s.stopping = true
	if s.ln != nil {
		s.ln.Close()
	}
	s.flushDeliveries()
	conns := s.connList()
	s.mu.Unlock()
	// close waits for the connection's writer, so it runs outside mu.
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
	s.mu.Lock()
	conns := s.connList()
	s.mu.Unlock()
	for _, fc := range conns {
		fc.abort()
	}
}

// connList copies the live connections. Callers hold mu.
func (s *Server) connList() []*frameConn {
	conns := make([]*frameConn, 0, len(s.conns))
	for fc := range s.conns {
		conns = append(conns, fc)
	}
	return conns
}

func (s *Server) serveConn(fc *frameConn, c net.Conn) {
	defer s.readers.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, fc)
		s.mu.Unlock()
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
		s.obsInflight.Add(1)
		kind, ok := s.answer(fc, f)
		s.obsInflight.Add(-1)
		if !ok {
			return
		}
		if f.Kind == wire.KindHello {
			if kind != wire.KindHelloOK {
				return // refused (version mismatch): the error is queued, close
			}
			greeted = true
		}
	}
}

// answer serves one request in one critical section under mu: the backend
// call, the flush of every delivery its sinks collected, and the response's
// enqueue. No other goroutine can hold part of a connection's deliveries
// while its response is queued. It returns the response's kind, and false
// when the connection should close (the server is stopping or the
// connection is gone).
func (s *Server) answer(fc *frameConn, f wire.Frame) (wire.Kind, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return 0, false
	}
	resp := s.handle(fc, f)
	resp.Corr = f.Corr
	s.flushDeliveries()
	return resp.Kind, fc.send(resp) == nil
}

// flushDeliveries encodes every pending connection's deliveries into
// KindDeliverBatch frames (chunked under the batch byte budget and
// wire.MaxDeliveries) on its write queue. It runs only with mu held, and
// sinks fire only inside a backend call, so it finds every delivery
// produced so far.
func (s *Server) flushDeliveries() {
	s.sinkMu.Lock()
	defer s.sinkMu.Unlock()
	for _, fc := range s.pending {
		s.flushConnDeliveries(fc)
	}
	clear(s.pending)
	s.pending = s.pending[:0]
}

func (s *Server) flushConnDeliveries(fc *frameConn) {
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

// handle serves one request frame. Callers hold mu.
func (s *Server) handle(fc *frameConn, f wire.Frame) wire.Frame {
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
				// Accumulate; the request that drove this backend call
				// flushes them before its response.
				s.sinkMu.Lock()
				if len(fc.dbatch) == 0 {
					s.pending = append(s.pending, fc)
				}
				fc.dbatch = append(fc.dbatch, d)
				s.sinkMu.Unlock()
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
