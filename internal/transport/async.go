package transport

import (
	"fmt"
	"slices"
	"time"

	"pleroma/internal/obs"
	"pleroma/internal/sortutil"
	"pleroma/internal/space"
	"pleroma/internal/wire"
)

// This file is the client's in-flight window — the one queue every
// request rides — and the pipelined publish path on top of it. A blocking
// call appends its request and waits on it; PublishAsync coalesces events
// per publisher into multi-event PublishReq frames and keeps a bounded
// number of them in the window without waiting for acks.
//
// Exactly-once under reconnect hangs on one ordering invariant: the server
// dedups with `Seq <= lastPubSeq` per publisher, so publishes must reach
// it in sequence order. Three rules enforce that:
//
//  1. A publish — blocking or pipelined — takes its sequence number in the
//     same c.mu critical section that appends it to the window and
//     enqueues its frame: a later publish can never jump an earlier one
//     onto the wire.
//  2. Only the redial goroutine reconnects after a lost connection, and
//     connectLocked re-sends the whole window in FIFO order while still
//     holding c.mu, onto the brand-new (empty) connection queue — ahead of
//     any new request.
//  3. Responses ride the same FIFO back, so a request is unanswered exactly
//     when the server may not have applied it, and re-sending it is either
//     applied for the first time or skipped by the seq dedup. Never twice.
//
// How a request ends when it is not answered:
//
//   - A request is sent at most MaxAttempts times; when the connection
//     carrying its last send is lost, it fails. Redial exhaustion and Close
//     fail every request in the window.
//   - A failed request with a waiter returns its error to that waiter
//     alone. One without (a pipelined publish) sets the sticky aerr, which
//     gates PublishAsync, Flush and Err — never a redial or a blocking
//     call — and drops the unsealed coalescing buffers.
//   - A blocking call's OpDeadline bounds its whole wait; on expiry its
//     request leaves the window and is not sent again.
//
// Options.Window bounds the requests in the window; seals and blocking
// calls wait for credit through one helper, waitCreditLocked.

// request is one entry of the in-flight window. Its encoded payload is
// retained until the response, so a re-send carries identical bytes (same
// Seq, same trace: the dedup key and the trace survive the re-send).
// Requests are reused from Client.free, each keeping its result channel and
// deadline timer. A blocking call's request goes back only after its caller
// took the result with the timer stopped: one whose deadline fired is
// abandoned, since its expire may still be on the way.
type request struct {
	kind    wire.Kind
	payload []byte
	corr    uint64    // correlation id on the current connection; 0 = unsent
	sends   int       // connections the frame was queued on
	sp      *obs.Span // pipelined publishes: ended on the ack
	pending bool      // neither answered nor failed yet
	waiting bool      // a blocking caller waits on ch
	ch      chan callResult
	timer   *time.Timer // runs expire after OpDeadline; nil until first armed
}

// callResult is what a blocking caller receives: a response frame
// (including server KindError rejections, which are not re-sent) or the
// error its request failed with.
type callResult struct {
	f   wire.Frame
	err error
}

// PublishAsync enqueues events from the advertised publisher id into the
// pipelined publish path: events coalesce with other PublishAsync calls
// for the same publisher and are sent as multi-event PublishReq frames
// without waiting for acks. Each event is encoded — its values copied —
// before the call returns, so the caller may reuse them at once. An event
// with no encoding is refused and none of the call's events is enqueued.
// It blocks only when the in-flight window is full (backpressure).
// Failures are sticky and asynchronous: the first failed batch poisons the
// pipeline, and the error surfaces here, on Flush, or on Err.
func (c *Client) PublishAsync(id string, events []space.Event) error {
	for _, ev := range events {
		if err := wire.CheckEvent(ev); err != nil {
			return err
		}
	}
	if len(events) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errClientClosed
	}
	if c.aerr != nil {
		return c.aerr
	}
	maxEvents := c.opts.batchEvents()
	maxBytes := c.opts.batchBytes()
	for _, ev := range events {
		// Looked up per event: a seal's wait for credit releases c.mu, and
		// a failure meanwhile drops the buffers.
		pb := c.apend[id]
		if pb == nil {
			pb = new(wire.PublishBuffer)
			c.apend[id] = pb
		}
		if err := pb.Append(ev); err != nil {
			return err // unreachable: checked above
		}
		if pb.Len() >= maxEvents || pb.Size() >= maxBytes {
			if err := c.sealLocked(id); err != nil {
				return err
			}
		}
	}
	if c.pendingLocked(id) != nil {
		c.armLingerLocked()
	}
	return nil
}

// pendingLocked returns id's coalescing buffer if it holds events, else nil.
func (c *Client) pendingLocked(id string) *wire.PublishBuffer {
	if pb := c.apend[id]; pb != nil && pb.Len() > 0 {
		return pb
	}
	return nil
}

// Flush seals every pending coalescing buffer and blocks until the
// in-flight window drains (every request answered or failed) or the
// pipeline fails. It returns the sticky pipeline error, nil meaning
// everything published so far is applied at the server.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errClientClosed
	}
	for _, id := range sortutil.Keys(c.apend) {
		if err := c.sealLocked(id); err != nil {
			return err
		}
	}
	for len(c.win) > 0 && c.aerr == nil {
		c.winCond.Wait()
	}
	return c.aerr
}

// Err returns the sticky pipeline error: the first async batch the
// transport gave up on or the server rejected.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aerr
}

// sealLocked turns id's pending events into one windowed publish: waits
// for window credit (releasing c.mu while blocked), then — in a single
// critical section — assigns the sequence number, renders the frame's one
// payload from the buffer, appends it to the window, and enqueues it. The
// emptied buffer stays in c.apend for the publisher's next events. A
// publisher with nothing pending seals nothing. Called with c.mu held.
func (c *Client) sealLocked(id string) error {
	if c.pendingLocked(id) == nil {
		return nil
	}
	if err := c.waitCreditLocked(nil); err != nil {
		return err
	}
	// The wait released c.mu: a concurrent linger fire may have sealed the
	// buffer meanwhile.
	pb := c.pendingLocked(id)
	if pb == nil {
		return nil
	}
	n := pb.Len()
	sp, tc := c.startPublishSpan(id)
	payload, err := pb.Seal(make([]byte, 0, 48+len(id)+pb.Size()), id, c.pubSeq+1, tc)
	if err != nil {
		// Unencodable batch (invalid id): surface and poison — its events
		// are gone, so completing later batches as if nothing was lost
		// would lie to Flush.
		sp.End(err)
		c.poisonLocked(err)
		c.winCond.Broadcast()
		return err
	}
	c.pubSeq++
	r := c.newRequestLocked()
	r.kind, r.payload, r.sp = wire.KindPublish, payload, sp
	c.obsCoalesce.ObserveCount(n)
	c.enqueueLocked(r)
	return nil
}

// waitCreditLocked blocks, releasing c.mu, until the window has room for
// one more request. It gives up once the client is closed; a seal (r nil)
// also on the sticky error, and a blocking call once its request r was
// finished meanwhile — its deadline expired.
func (c *Client) waitCreditLocked(r *request) error {
	for {
		switch {
		case c.closed:
			return errClientClosed
		case r == nil && c.aerr != nil:
			return c.aerr
		case r != nil && !r.pending:
			return errTimedOut
		case len(c.win) < c.opts.window():
			return nil
		}
		c.winCond.Wait()
	}
}

// newRequestLocked takes a request from the free list, or makes one.
func (c *Client) newRequestLocked() *request {
	var r *request
	if n := len(c.free); n > 0 {
		r, c.free = c.free[n-1], c.free[:n-1]
	} else {
		r = &request{}
	}
	r.pending, r.waiting = true, false
	return r
}

// admitLocked readies the request of a blocking call: taken from the free
// list, its deadline armed, window credit waited for. It reports false when
// the request was finished instead — the client closed, or the deadline
// expired first — with the result already on r.ch.
func (c *Client) admitLocked() (*request, bool) {
	r := c.newRequestLocked()
	r.waiting = true
	if r.ch == nil {
		r.ch = make(chan callResult, 1)
	}
	if d := c.retry.OpDeadline; d > 0 {
		if r.timer == nil {
			r.timer = time.AfterFunc(d, func() { c.expire(r) })
		} else {
			r.timer.Reset(d)
		}
	}
	if err := c.waitCreditLocked(r); err != nil {
		if r.pending {
			c.finishLocked(r, wire.Frame{}, err)
		}
		return r, false
	}
	return r, true
}

// await waits for the result of a blocking call's request, then returns
// the request to the free list unless its deadline fired.
func (c *Client) await(r *request) (wire.Frame, error) {
	res := <-r.ch
	c.mu.Lock()
	if r.timer == nil || r.timer.Stop() {
		c.free = append(c.free, r)
	}
	c.mu.Unlock()
	return res.f, res.err
}

// expire is a blocking call's deadline: a request still in flight leaves
// the window unanswered, and its caller gets errTimedOut.
func (c *Client) expire(r *request) {
	c.mu.Lock()
	if r.pending {
		c.finishLocked(r, wire.Frame{}, errTimedOut)
	}
	c.mu.Unlock()
}

// enqueueLocked appends r to the window and sends it — or, with no live
// connection, leaves it to the redial goroutine.
func (c *Client) enqueueLocked(r *request) {
	c.win = append(c.win, r)
	c.obsWindow.Set(int64(len(c.win)))
	if c.fc != nil {
		c.sendLocked(r)
	} else {
		c.ensureRedialLocked()
	}
}

// sendLocked queues r's frame on the current connection under a fresh
// correlation id. A send error is ignored: the connection is already
// dying, and its connLost decides whether r is sent again.
func (c *Client) sendLocked(r *request) {
	c.corr++
	r.corr = c.corr
	r.sends++
	c.byCorr[r.corr] = r
	c.fc.send(wire.Frame{Kind: r.kind, Corr: r.corr, Payload: r.payload})
}

// finishLocked takes r out of the window with its response f or its
// failure err. A blocking caller receives either. A pipelined publish ends
// its span — a rejection or failure becoming the sticky aerr — and goes
// back to the free list.
func (c *Client) finishLocked(r *request, f wire.Frame, err error) {
	if i := slices.Index(c.win, r); i >= 0 {
		c.win = slices.Delete(c.win, i, i+1)
	}
	if r.corr != 0 {
		delete(c.byCorr, r.corr)
	}
	r.payload, r.corr, r.sends, r.pending = nil, 0, 0, false
	if r.waiting {
		// Never blocks: pending guards one send per use, and a request is
		// reused only after its caller took that send from the buffer.
		r.ch <- callResult{f: f, err: err}
	} else {
		if err == nil && f.Kind != wire.KindOK {
			err = fmt.Errorf("transport: async publish: %s", respError(f))
		}
		r.sp.End(err)
		r.sp = nil
		if err != nil {
			c.poisonLocked(err)
		}
		c.free = append(c.free, r)
	}
	c.obsWindow.Set(int64(len(c.win)))
	c.winCond.Broadcast()
}

// poisonLocked makes err the sticky pipeline error unless one is set. The
// unsealed coalescing buffers go with the pipeline: nothing seals them any
// more, and a blocking Publish must not wait behind them.
func (c *Client) poisonLocked(err error) {
	if c.aerr == nil {
		c.aerr = err
		clear(c.apend)
	}
}

// failWindowLocked fails every request in the window with err.
func (c *Client) failWindowLocked(err error) {
	for len(c.win) > 0 {
		c.finishLocked(c.win[0], wire.Frame{}, err)
	}
}

// armLingerLocked schedules a seal of partial batches after the linger
// deadline, so a trickle of events never waits indefinitely for a full
// batch.
func (c *Client) armLingerLocked() {
	if c.lingerOn {
		return
	}
	c.lingerOn = true
	time.AfterFunc(c.opts.linger(), c.lingerFire)
}

func (c *Client) lingerFire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lingerOn = false
	if c.closed || c.aerr != nil {
		return
	}
	for _, id := range sortutil.Keys(c.apend) {
		if c.sealLocked(id) != nil {
			return
		}
	}
}

// ensureRedialLocked starts the redial goroutine when the window holds
// requests but no live connection exists.
func (c *Client) ensureRedialLocked() {
	if c.redialing || c.closed || len(c.win) == 0 {
		return
	}
	c.redialing = true
	go c.redialLoop()
}

// redialLoop reconnects under the retry policy. On success connectLocked
// has already re-sent the window (rule 2 above); on exhaustion every
// request in the window fails.
func (c *Client) redialLoop() {
	pol := c.retry.Normalized()
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			if backoff := pol.Backoff(attempt - 1); backoff > 0 {
				pol.Sleep(backoff)
			}
		}
		c.mu.Lock()
		if c.closed || len(c.win) == 0 {
			c.redialing = false
			c.mu.Unlock()
			return
		}
		c.obsReconnects.Inc()
		start, err := c.connectLocked()
		if err == nil {
			c.redialing = false
			c.mu.Unlock()
			start()
			return
		}
		c.mu.Unlock()
	}
	c.mu.Lock()
	c.redialing = false
	c.failWindowLocked(fmt.Errorf("transport: %d redial attempts exhausted", pol.MaxAttempts))
	c.mu.Unlock()
}
