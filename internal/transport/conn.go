// Package transport carries PLEROMA's control and data messages across a
// real process boundary: length-prefixed wire.Frame messages over stdlib
// TCP, with request/response correlation, per-connection write batching,
// and client-side reconnect under a retry.Policy. The server side (Server)
// exposes a Backend — the control ops, publishes, drains and digest the
// in-process facade drives directly — and the client side (Client) lets
// publisher and subscriber processes speak to it. No switch is read or
// written through it: the controller programs its switches in the daemon's
// process and is their only writer. The emulator never appears here: both
// ends exchange only wire types, which is what lets publishers and
// subscribers run in processes of their own.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"pleroma/internal/obs"
	"pleroma/internal/wire"
)

// connMetrics holds the transport instruments shared by both roles. All
// fields may be nil (obs instruments are nil-safe).
type connMetrics struct {
	framesSent *obs.Counter
	framesRecv *obs.Counter
	bytesSent  *obs.Counter
	bytesRecv  *obs.Counter
	// writeBatch samples the frames drained per writer wakeup (one bufio
	// flush = one syscall); flushes counts flushes by reason; frameBytes
	// samples encoded frame sizes.
	writeBatch *obs.Histogram
	flushes    *obs.Vec[string, *obs.Counter]
	frameBytes *obs.Histogram
}

// outFrame is one queued outbound frame: the fixed header plus a payload
// reference. Keeping the payload by reference (instead of re-encoding the
// whole frame into a fresh contiguous buffer) is what makes the send path
// copy-free; pool is the slab-pool box of a payload drawn from getBuf
// (payload is *pool), which the writer returns after the bytes hit the
// socket.
type outFrame struct {
	hdr     [wire.FrameHeaderLen]byte
	payload []byte
	pool    *[]byte
}

// frameConn wraps a net.Conn with an unbounded FIFO write queue drained by
// a single writer goroutine. Senders never block on the network: send
// enqueues the frame and returns, and the writer drains every frame queued
// at the moment it wakes through the buffered writer, flushing only once
// the queue is empty (flush-on-idle) — so a burst of N frames costs one
// syscall no matter how many wakeups it spans. The FIFO order doubles as
// the protocol's barrier: a response enqueued after a set of deliveries
// reaches the peer after them.
type frameConn struct {
	c  net.Conn
	bw *bufio.Writer

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []outFrame
	closed bool
	werr   error
	done   chan struct{}

	writeTimeout time.Duration
	m            connMetrics

	// dbatch accumulates the deliveries produced for this connection by
	// the backend call in progress (server side only, guarded by the
	// server's sinkMu); the server flushes it as KindDeliverBatch frames
	// before enqueuing the call's response.
	dbatch []wire.Delivery
}

func newFrameConn(c net.Conn, writeTimeout time.Duration, m connMetrics) *frameConn {
	if tc, ok := c.(*net.TCPConn); ok {
		// Batching owns coalescing now; Nagle would only add latency on
		// the partially-filled flushes.
		tc.SetNoDelay(true)
	}
	fc := &frameConn{
		c:            c,
		bw:           bufio.NewWriter(c),
		done:         make(chan struct{}),
		writeTimeout: writeTimeout,
		m:            m,
	}
	fc.cond = sync.NewCond(&fc.mu)
	go fc.writeLoop()
	return fc
}

// send enqueues one frame for transmission. The payload is referenced, not
// copied: the caller must not mutate it until the frame is on the wire
// (callers that recycle buffers use sendPooled). It returns an error only
// if the connection is already closed or a previous write failed; the
// write itself is asynchronous.
func (fc *frameConn) send(f wire.Frame) error {
	return fc.enqueue(f.Kind, f.Corr, f.Payload, nil)
}

// sendPooled enqueues one frame whose payload is the buffer in a getBuf
// box, transferring ownership: the writer returns the box to the slab pool
// once written (or dropped on abort).
func (fc *frameConn) sendPooled(kind wire.Kind, corr uint64, pool *[]byte) error {
	return fc.enqueue(kind, corr, *pool, pool)
}

func (fc *frameConn) enqueue(kind wire.Kind, corr uint64, payload []byte, pool *[]byte) error {
	if !kind.Valid() {
		putBuf(pool)
		return fmt.Errorf("wire: invalid frame kind %d", uint8(kind))
	}
	if len(payload) > wire.MaxFramePayload {
		putBuf(pool)
		return fmt.Errorf("wire: frame payload of %d bytes exceeds %d", len(payload), wire.MaxFramePayload)
	}
	of := outFrame{payload: payload, pool: pool}
	binary.BigEndian.PutUint32(of.hdr[:], uint32(9+len(payload)))
	of.hdr[4] = byte(kind)
	binary.BigEndian.PutUint64(of.hdr[5:], corr)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.werr != nil {
		putBuf(pool)
		return fc.werr
	}
	if fc.closed {
		putBuf(pool)
		return fmt.Errorf("transport: connection closed")
	}
	fc.queue = append(fc.queue, of)
	fc.cond.Signal()
	return nil
}

// maxSpareFrames bounds the queue backing array the writer keeps between
// wakeups (40 KB of frame headers); a deeper backlog's array goes to the GC.
const maxSpareFrames = 1024

// writeLoop drains the queue: every wakeup takes the whole backlog and
// writes it through the buffered writer, but flushes only when the queue
// is empty after the writes (flush-on-idle) — frames that arrived while
// the writer was busy ride the same eventual flush. The queue swaps between
// two backing arrays — senders fill one while the writer drains the other —
// so steady traffic enqueues without allocating.
func (fc *frameConn) writeLoop() {
	defer close(fc.done)
	var spare []outFrame // the drained array, empty, payload references cleared
	for {
		fc.mu.Lock()
		for len(fc.queue) == 0 && !fc.closed && fc.werr == nil {
			fc.cond.Wait()
		}
		if fc.werr != nil || (fc.closed && len(fc.queue) == 0) {
			fc.mu.Unlock()
			return
		}
		batch := fc.queue
		fc.queue = spare
		fc.mu.Unlock()

		if fc.writeTimeout > 0 {
			fc.c.SetWriteDeadline(time.Now().Add(fc.writeTimeout))
		}
		var n int
		var err error
		for i := range batch {
			of := &batch[i]
			if _, err = fc.bw.Write(of.hdr[:]); err != nil {
				break
			}
			if _, err = fc.bw.Write(of.payload); err != nil {
				break
			}
			n += len(of.hdr) + len(of.payload)
			fc.m.frameBytes.ObserveCount(len(of.hdr) + len(of.payload))
			putBuf(of.pool)
			of.payload, of.pool = nil, nil
		}
		if err == nil {
			// Flush only when no frame arrived while we were writing: a
			// still-busy queue means the next iteration extends this
			// buffered run instead of paying a syscall per wakeup.
			fc.mu.Lock()
			idle := len(fc.queue) == 0
			fc.mu.Unlock()
			if idle {
				err = fc.bw.Flush()
				fc.m.flushes.With("idle").Inc()
			}
		}
		if err != nil {
			fc.mu.Lock()
			fc.werr = err
			dropped := fc.queue
			fc.queue = nil
			fc.mu.Unlock()
			recycleFrames(batch)
			recycleFrames(dropped)
			fc.c.Close()
			return
		}
		fc.m.framesSent.Add(uint64(len(batch)))
		fc.m.bytesSent.Add(uint64(n))
		fc.m.writeBatch.ObserveCount(len(batch))
		spare = nil
		if cap(batch) <= maxSpareFrames {
			clear(batch) // written payloads belong to their senders again
			spare = batch[:0]
		}
	}
}

// recycleFrames returns the pooled payloads of unwritten frames to the
// slab pool.
func recycleFrames(frames []outFrame) {
	for i := range frames {
		putBuf(frames[i].pool)
		frames[i].payload, frames[i].pool = nil, nil
	}
}

// close shuts the connection down gracefully: queued frames are flushed
// before the socket closes. Idempotent.
func (fc *frameConn) close() {
	fc.mu.Lock()
	if fc.closed {
		fc.mu.Unlock()
		<-fc.done
		return
	}
	fc.closed = true
	fc.cond.Signal()
	fc.mu.Unlock()
	<-fc.done
	fc.m.flushes.With("close").Inc()
	fc.bw.Flush()
	fc.c.Close()
}

// abort tears the connection down immediately, discarding queued frames —
// the crash-simulation path (Server.DropConnections).
func (fc *frameConn) abort() {
	fc.mu.Lock()
	if fc.werr == nil {
		fc.werr = fmt.Errorf("transport: connection dropped")
	}
	fc.closed = true
	dropped := fc.queue
	fc.queue = nil
	fc.cond.Signal()
	fc.mu.Unlock()
	recycleFrames(dropped)
	fc.c.Close()
	<-fc.done
}

// Shared instrument constructors for the two observability options: both
// roles expose the same writer-batching surface under the same names.
func newWriteBatchHistogram(reg *obs.Registry) *obs.Histogram {
	h := obs.NewCountHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256)
	reg.Attach(obs.MTransportWriteBatchFrames, "Frames drained per connection-writer wakeup (one flush).", h)
	return h
}

func newFlushVec(reg *obs.Registry) *obs.Vec[string, *obs.Counter] {
	v := obs.NewVec[string](obs.NewCounter)
	reg.AttachVec(obs.MTransportFlushes, "Connection writer bufio flushes by reason.", "reason", v)
	return v
}

func newFrameBytesHistogram(reg *obs.Registry) *obs.Histogram {
	h := obs.NewCountHistogram(64, 256, 1<<10, 4<<10, 16<<10, 64<<10, 256<<10, 1<<20)
	reg.Attach(obs.MTransportFrameBytes, "Encoded frame sizes, header+payload bytes (informs the slab pool classes).", h)
	return h
}

// readFrame reads one frame from r into buf (growing it as needed; nil
// allocates a fresh payload), counting it against m. The frame's payload
// aliases the returned buffer and is valid only until the next read with
// it — callers retaining a payload must copy it or pass nil.
func readFrame(r *bufio.Reader, m connMetrics, buf []byte) (wire.Frame, []byte, error) {
	f, buf, err := wire.ReadFrame(r, buf)
	if err != nil {
		return f, buf, err
	}
	m.framesRecv.Inc()
	m.bytesRecv.Add(uint64(wire.FrameHeaderLen + len(f.Payload)))
	return f, buf, nil
}
