package transport

import (
	"fmt"
	"sort"
	"time"

	"pleroma/internal/obs"
	"pleroma/internal/space"
	"pleroma/internal/wire"
)

// This file is the client half of the pipelined data path: PublishAsync
// coalesces events per publisher into multi-event PublishReq frames and
// keeps a bounded window of them in flight without waiting for acks.
//
// Exactly-once under reconnect hangs on one ordering invariant: the server
// dedups with `Seq <= lastPubSeq` per publisher, so publishes must reach
// it in sequence order. Three rules enforce that:
//
//  1. A batch's sequence number is assigned in the same c.mu critical
//     section that appends it to the window and enqueues its frame — a
//     later batch can never jump an earlier one onto the wire.
//  2. On reconnect, connectLocked re-sends the whole unacked window in
//     FIFO order while still holding c.mu, onto the brand-new (empty)
//     connection queue — guaranteed ahead of any retried or new request.
//  3. Acks ride the same FIFO back, so window entries complete in order;
//     an entry is unacked exactly when the server may not have applied it,
//     and re-sending it is either applied-for-the-first-time or skipped by
//     the seq dedup. Never twice, never lost.
//
// Synchronous Publish on the same publisher interleaves safely with a
// sequential caller (it seals the pending batch first and its frame
// follows the window's on the same FIFO); concurrent goroutines mixing
// Publish and PublishAsync on one publisher id get no ordering promise.

// pubPending is the per-publisher coalescing buffer: events accumulate
// until the count/byte threshold trips or the linger timer fires.
type pubPending struct {
	events []space.Event
	bytes  int // encoded payload estimate: 2+4*dims per event
}

// asyncEntry is one sealed, windowed publish: its encoded payload is
// retained until the ack so a reconnect can replay identical bytes (same
// Seq, same trace — the dedup key and the trace survive the retry).
type asyncEntry struct {
	seq     uint64
	corr    uint64 // correlation id on the current connection; 0 = unsent
	payload []byte
	events  int
	sp      *obs.Span
}

// PublishAsync enqueues events from the advertised publisher id into the
// pipelined publish path: events coalesce with other PublishAsync calls
// for the same publisher and are sent as multi-event PublishReq frames
// without waiting for acks. It blocks only when the in-flight window is
// full (backpressure). Failures are sticky and asynchronous: the first
// failed batch poisons the pipeline, and the error surfaces here, on
// Flush, or on Err. Callers must not mutate events after the call.
func (c *Client) PublishAsync(id string, events []space.Event) error {
	if len(events) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("transport: client closed")
	}
	if c.aerr != nil {
		return c.aerr
	}
	maxEvents := c.opts.batchEvents()
	maxBytes := c.opts.batchBytes()
	if c.apend == nil {
		c.apend = make(map[string]*pubPending)
	}
	for _, ev := range events {
		pb := c.apend[id]
		if pb == nil {
			pb = &pubPending{}
			c.apend[id] = pb
		}
		pb.events = append(pb.events, ev)
		pb.bytes += 2 + 4*len(ev.Values)
		if len(pb.events) >= maxEvents || pb.bytes >= maxBytes {
			if err := c.sealLocked(id); err != nil {
				return err
			}
		}
	}
	if pb := c.apend[id]; pb != nil && len(pb.events) > 0 {
		c.armLingerLocked()
	}
	return nil
}

// Flush seals every pending coalescing buffer and blocks until the
// in-flight window drains (every batch acked) or the pipeline fails. It
// returns the sticky pipeline error, nil meaning everything published so
// far is applied at the server.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("transport: client closed")
	}
	for _, id := range c.pendingIDsLocked() {
		if err := c.sealLocked(id); err != nil {
			return err
		}
	}
	for len(c.awin) > 0 && c.aerr == nil && !c.closed {
		if c.fc == nil {
			c.ensureRedialLocked()
		}
		c.winCond.Wait()
	}
	return c.aerr
}

// Err returns the sticky pipeline error: the first async batch the
// transport gave up on (redial exhaustion) or the server rejected.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aerr
}

// pendingIDsLocked lists publishers with unsealed events, sorted for
// deterministic seal order.
func (c *Client) pendingIDsLocked() []string {
	ids := make([]string, 0, len(c.apend))
	for id, pb := range c.apend {
		if pb != nil && len(pb.events) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// sealLocked turns id's pending coalescing buffer into one windowed
// publish: waits for window credit (releasing c.mu while blocked), then —
// in a single critical section — assigns the sequence number, encodes the
// frame, appends it to the window, and enqueues it. Called with c.mu held.
func (c *Client) sealLocked(id string) error {
	for {
		if c.aerr != nil {
			return c.aerr
		}
		if c.closed {
			return fmt.Errorf("transport: client closed")
		}
		pb := c.apend[id]
		if pb == nil || len(pb.events) == 0 {
			return nil
		}
		if len(c.awin) < c.opts.window() {
			break
		}
		// Window full: credit-based backpressure. Wait releases c.mu, so
		// the pending buffer must be re-read afterwards — a concurrent
		// linger fire may already have sealed it.
		c.winCond.Wait()
	}
	pb := c.apend[id]
	delete(c.apend, id)

	c.pubSeq++
	sp, tc := c.startPublishSpan(id)
	req := wire.PublishReq{ID: id, Seq: c.pubSeq, Events: pb.events, Trace: tc}
	payload, err := wire.AppendPublish(make([]byte, 0, 48+len(id)+pb.bytes), req)
	if err != nil {
		// Unencodable batch (invalid id or event): surface and poison —
		// its events are gone, so completing later batches as if nothing
		// was lost would lie to Flush.
		sp.End(err)
		c.aerr = err
		c.winCond.Broadcast()
		return err
	}
	e := &asyncEntry{seq: req.Seq, payload: payload, events: len(pb.events), sp: sp}
	c.awin = append(c.awin, e)
	c.obsWindow.Set(int64(len(c.awin)))
	c.obsCoalesce.ObserveCount(e.events)
	if c.fc != nil {
		c.sendEntryLocked(e)
	} else {
		c.ensureRedialLocked()
	}
	return nil
}

// sendEntryLocked assigns e a fresh correlation id on the current
// connection and enqueues its frame. A send error is ignored: the
// connection is already dying, readLoop's connLost will clear the stale
// correlation and the redial path re-sends the window.
func (c *Client) sendEntryLocked(e *asyncEntry) {
	c.corr++
	e.corr = c.corr
	c.acorr[e.corr] = e
	c.fc.send(wire.Frame{Kind: wire.KindPublish, Corr: e.corr, Payload: e.payload})
}

// completeEntryLocked finishes one windowed publish on its ack (err nil)
// or server rejection (err non-nil, sticky).
func (c *Client) completeEntryLocked(e *asyncEntry, err error) {
	for i, w := range c.awin {
		if w == e {
			c.awin = append(c.awin[:i], c.awin[i+1:]...)
			break
		}
	}
	e.payload = nil
	e.sp.End(err)
	if err != nil && c.aerr == nil {
		c.aerr = err
	}
	c.obsWindow.Set(int64(len(c.awin)))
	c.winCond.Broadcast()
}

// failWindowLocked poisons the pipeline: every in-flight batch fails with
// err and waiters wake.
func (c *Client) failWindowLocked(err error) {
	if c.aerr == nil {
		c.aerr = err
	}
	for _, e := range c.awin {
		e.sp.End(err)
		e.payload = nil
	}
	c.awin = nil
	c.acorr = make(map[uint64]*asyncEntry)
	c.obsWindow.Set(0)
	c.winCond.Broadcast()
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
	for _, id := range c.pendingIDsLocked() {
		if c.sealLocked(id) != nil {
			return
		}
	}
}

// ensureRedialLocked spawns the async redial goroutine when the window
// holds unacked batches but no live connection exists — the pipeline
// reconnects on its own, without a synchronous call to piggyback on.
func (c *Client) ensureRedialLocked() {
	if c.redialing || c.closed || c.aerr != nil {
		return
	}
	if len(c.awin) == 0 {
		return
	}
	c.redialing = true
	go c.redialLoop()
}

// redialLoop reconnects under the retry policy. On success connectLocked
// has already re-sent the window (rule 2 above); on exhaustion the
// pipeline is poisoned so Flush callers unblock with the error.
func (c *Client) redialLoop() {
	pol := c.retry.Normalized()
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			if backoff := pol.Backoff(attempt - 1); backoff > 0 {
				pol.Sleep(backoff)
			}
		}
		c.mu.Lock()
		if c.closed || c.aerr != nil || len(c.awin) == 0 {
			c.redialing = false
			c.mu.Unlock()
			return
		}
		if c.fc != nil {
			// A synchronous call's attempt already reconnected (and
			// re-sent the window on its way).
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
	if c.fc == nil {
		c.failWindowLocked(fmt.Errorf("transport: %d redial attempts exhausted with %d publishes in flight", pol.MaxAttempts, len(c.awin)))
	}
	c.mu.Unlock()
}
