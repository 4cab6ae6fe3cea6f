// Package sim provides a small deterministic discrete-event simulation
// engine. It replaces the paper's wall-clock testbed measurements with a
// simulated clock: every experiment schedules work at simulated instants
// and the engine executes events in (time, insertion) order, making all
// latency and throughput numbers exactly reproducible.
//
// There is one event form: a small tagged payload (Event) dispatched to the
// long-lived Handler that scheduled it. An event names its target, so a
// layer that runs several engines (package shard) can route it to whoever
// owns that target, and scheduling allocates nothing in steady state:
// events are inline structs (no per-event heap node, no container/heap
// interface boxing) and a handler keeps anything larger than the payload
// words in storage of its own, named by Event.Ref (see Slots).
//
// A simulation whose delays are a handful of constants (a lookup, a link)
// pushes a handful of streams that are each already sorted, so the queue
// keeps a few sorted-run lanes — FIFO rings — in front of a 4-ary heap
// (see eventQueue): an event that extends a lane costs an append and pops
// with a scan over the lane heads; only events that fit no lane pay a heap
// sift. The executed order is the (time, seq) order whatever the push
// order was.
package sim

import (
	"math"
	"time"
)

// Event is a typed, allocation-free scheduled occurrence. The engine does
// not interpret Kind or the payload words; they belong to the Handler that
// scheduled the event (the data plane packs packet-arrival, lookup and
// host-done variants into them). Payload layout:
//
//	Kind — the handler's tag (which variant this is)
//	A, B — two small words (node id, ingress port, …)
//	Ref  — a reference into handler-owned storage (e.g. a packet slab slot)
type Event struct {
	Kind uint8
	A, B int32
	Ref  uint32
}

// Handler consumes typed events at their simulated instant. Implementations
// are typically a single long-lived object (the data plane), so scheduling
// a typed event allocates nothing: the interface value boxes a pointer that
// already exists.
type Handler interface {
	HandleEvent(ev Event)
}

// Slots is a handler's storage for event payloads larger than Event's
// words: Put parks a value and returns the Ref an event names it by, Take
// hands it back and frees the slot for the next Put. The zero value is
// ready to use; like the engine it belongs to one goroutine.
type Slots[T any] struct {
	items []T
	free  []uint32
}

// Put stores v and returns its slot.
func (s *Slots[T]) Put(v T) uint32 {
	if n := len(s.free); n > 0 {
		ref := s.free[n-1]
		s.free = s.free[:n-1]
		s.items[ref] = v
		return ref
	}
	s.items = append(s.items, v)
	return uint32(len(s.items) - 1)
}

// Take returns the value in slot ref and frees the slot, dropping its
// references.
func (s *Slots[T]) Take(ref uint32) T {
	v := s.items[ref]
	var zero T
	s.items[ref] = zero
	s.free = append(s.free, ref)
	return v
}

// Engine is a discrete-event scheduler. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now   time.Duration
	queue eventQueue
	seq   uint64

	// How far the engine has got in the (time, seq) order, for Passed. Step
	// executed the event with key (posAt, posSeq), so every key before it is
	// behind the engine; RunWindow ran out its horizon winAt, so every key
	// taken by then (seq <= winSeq) and not after the horizon is; and when
	// Step found the queue empty, every key taken by then (seq <= drained).
	posAt   time.Duration
	posSeq  uint64
	winAt   time.Duration
	winSeq  uint64
	drained uint64
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time (elapsed since simulation start).
func (e *Engine) Now() time.Duration { return e.now }

// ScheduleEvent runs h.HandleEvent(ev) after the given simulated delay.
// Negative delays are clamped to zero (i.e. "as soon as possible, after
// already queued work at the current instant").
func (e *Engine) ScheduleEvent(delay time.Duration, h Handler, ev Event) {
	if delay < 0 {
		delay = 0
	}
	e.AtEvent(e.now+delay, h, ev)
}

// AtEvent runs h.HandleEvent(ev) at the given absolute simulated time.
// Times in the past are clamped to the current instant.
func (e *Engine) AtEvent(t time.Duration, h Handler, ev Event) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.queue.push(&item{at: t, seq: e.seq, h: h, ev: ev})
}

// ReserveSeq takes the next sequence number without queueing anything. A
// caller whose event would do nothing but mark an instant (the data plane's
// "this link slot is free again") keeps the key (at, seq) instead of
// scheduling it, and asks Passed whether the engine has got there: the key
// orders against every queued event exactly as the event would have.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// Passed reports whether an event with key (at, seq) — seq from ReserveSeq,
// at not before the clock at that moment — would have been executed by now:
// since seq was taken the engine has executed an event that orders after
// the key, or completed a window (RunWindow, RunUntil) whose horizon
// reaches at, or found its queue empty.
func (e *Engine) Passed(at time.Duration, seq uint64) bool {
	return at < e.posAt || (at == e.posAt && seq < e.posSeq) ||
		(at <= e.winAt && seq <= e.winSeq) || seq <= e.drained
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	src := e.queue.min()
	if src < 0 {
		e.drained = e.seq
		return false
	}
	e.exec(src)
	return true
}

// exec pops the head of queue source src (from eventQueue.min) and runs it.
func (e *Engine) exec(src int) {
	var it item
	e.queue.pop(src, &it)
	e.now = it.at
	e.posAt, e.posSeq = it.at, it.seq
	it.h.HandleEvent(it.ev)
}

// Run executes events until the queue is empty and returns the final
// simulated time.
func (e *Engine) Run() time.Duration {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps not after deadline, then sets
// the clock to deadline (if it has not advanced further) and returns it.
// Events scheduled after the deadline remain queued.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	e.RunWindow(deadline)
	e.AdvanceTo(deadline)
	return e.now
}

// RunWindow executes every event with a timestamp not after horizon and
// returns the number executed. Unlike RunUntil it does not advance the
// clock to the horizon afterwards: the clock rests at the last executed
// event. This is the execution primitive of the parallel shard engine —
// a conservatively synchronized shard may run exactly up to the horizon
// its neighbours have committed, and no further. (For Passed, a horizon
// earlier than one already run out adds nothing: horizons are expected not
// to decrease while the clock rests behind one.)
func (e *Engine) RunWindow(horizon time.Duration) int {
	n := 0
	for {
		src := e.queue.min()
		if src < 0 || e.queue.at(src) > horizon {
			break
		}
		e.exec(src)
		n++
	}
	if horizon >= e.winAt {
		e.winAt, e.winSeq = horizon, e.seq
	}
	return n
}

// NextAt returns the timestamp of the earliest queued event, or false if
// the queue is empty.
func (e *Engine) NextAt() (time.Duration, bool) {
	src := e.queue.min()
	if src < 0 {
		return 0, false
	}
	return e.queue.at(src), true
}

// AdvanceTo moves the clock forward to t; it never moves it backwards.
// Used by the shard coordinator to align engine clocks at barriers.
func (e *Engine) AdvanceTo(t time.Duration) {
	if t > e.now {
		e.now = t
	}
}

// Pending returns the number of queued events. Keys taken with ReserveSeq
// are not events and are not counted, so the shard queue-depth gauge, which
// samples Pending, excludes the data plane's link departure keys.
func (e *Engine) Pending() int { return e.queue.n }

// item is one queued event for h. Items live inline in the queue's arrays
// — pushing never allocates a node, and in steady state (pop ≈ push) the
// arrays' capacity is the free list, so scheduling is 0 allocs/op.
type item struct {
	at  time.Duration
	seq uint64
	h   Handler
	ev  Event
}

// numLanes is the number of sorted-run lanes in front of the heap: enough
// for the data plane's streams (lookups, arrivals per distinct link delay,
// host completions) with a few to spare. Push and pop scan only as far as
// the highest lane in use.
const numLanes = 8

// heapSrc is the queue source index of the heap (lanes are 0..numLanes-1).
const heapSrc = numLanes

// eventQueue is a priority queue over (at, seq): numLanes FIFO lanes and a
// 4-ary implicit min-heap behind them.
//
// seq grows with every push, so a push whose timestamp is not before a
// lane's tail may be appended to that lane and the lane stays sorted; each
// lane is a run of the final order, and the minimum of the lane heads and
// the heap top is the minimum of the queue. A push goes to the lane with
// the latest tail it can extend (leaving lanes with earlier tails open for
// earlier timestamps; an empty lane counts as the earliest tail of all) and
// to the heap when it can extend none, so any push order is handled and
// nothing but cost depends on which container held an item: (at, seq) is a
// total order (seq is unique), and every pop returns its minimum — the same
// sequence the heap alone, and the historical container/heap queue before
// it, would execute. A push order that is a few interleaved sorted streams
// never reaches the heap.
//
// The heap is 4-ary: half the depth of a binary heap for slightly more
// sibling comparisons per level, the better trade when it does get used.
type eventQueue struct {
	// headAt/headSeq cache each lane's head key, tailAt its tail timestamp,
	// so push and min scan these arrays and touch no ring. Lanes fill from
	// index 0: lanes[used:] are empty and not scanned, an empty lane below
	// used holds the sentinels of emptyLane.
	headAt  [numLanes]time.Duration
	headSeq [numLanes]uint64
	tailAt  [numLanes]time.Duration
	lanes   [numLanes]ring
	heap    []item
	n       int // items queued, lanes and heap together
	used    int
}

// emptyLane marks lane i empty: a tail every timestamp can extend, chosen
// after every real tail, and a head no real key orders after.
func (q *eventQueue) emptyLane(i int) {
	q.headAt[i], q.headSeq[i] = math.MaxInt64, math.MaxUint64
	q.tailAt[i] = math.MinInt64
}

func (q *eventQueue) push(it *item) {
	q.n++
	lane, tail := -1, time.Duration(math.MinInt64)
	for i, t := range q.tailAt[:q.used] {
		if t <= it.at && (lane < 0 || t > tail) {
			lane, tail = i, t
		}
	}
	if lane < 0 {
		if q.used == numLanes {
			q.heap = append(q.heap, *it)
			q.siftUp(len(q.heap) - 1)
			return
		}
		lane = q.used // the next unused lane, empty: tail is its sentinel
		q.used++
	}
	if tail == math.MinInt64 {
		q.headAt[lane], q.headSeq[lane] = it.at, it.seq
	}
	q.tailAt[lane] = it.at
	q.lanes[lane].push(it)
}

// min returns the source holding the queue's minimum — a lane index or
// heapSrc — or -1 when the queue is empty.
func (q *eventQueue) min() int {
	if q.n == 0 {
		return -1
	}
	src, at, seq := -1, time.Duration(math.MaxInt64), uint64(math.MaxUint64)
	if len(q.heap) > 0 {
		src, at, seq = heapSrc, q.heap[0].at, q.heap[0].seq
	}
	for i, a := range q.headAt[:q.used] {
		if a < at || (a == at && q.headSeq[i] < seq) {
			src, at, seq = i, a, q.headSeq[i]
		}
	}
	return src
}

// at returns the timestamp at the head of a source min returned.
func (q *eventQueue) at(src int) time.Duration {
	if src == heapSrc {
		return q.heap[0].at
	}
	return q.headAt[src]
}

// pop moves the head of a source min returned to *it.
func (q *eventQueue) pop(src int, it *item) {
	q.n--
	if src == heapSrc {
		q.popHeap(it)
		return
	}
	l := &q.lanes[src]
	l.pop(it)
	if l.n == 0 {
		q.emptyLane(src)
		for q.used > 0 && q.lanes[q.used-1].n == 0 {
			q.used--
		}
	} else {
		head := &l.buf[l.head]
		q.headAt[src], q.headSeq[src] = head.at, head.seq
	}
}

// ring is one lane: a FIFO of items in a circular buffer whose length is a
// power of two.
type ring struct {
	buf  []item
	head int
	n    int
}

// shrinkFloor is the capacity below which neither a lane nor the heap ever
// shrinks, so steady-state traffic — a thousand packets in flight have a
// thousand events queued — reuses the arrays for free. Above it, capacity
// pinned by a past burst is released once occupancy falls under a quarter
// of it: a 100k-event batch must not hold its peak arrays, and a
// handler reference per entry, for the engine's lifetime.
// Halving at a quarter keeps the copy cost amortized (the next halving
// needs occupancy to halve again). ringMin is a lane's first allocation.
const (
	shrinkFloor = 1024
	ringMin     = 16
)

func (r *ring) push(it *item) {
	if r.n == len(r.buf) {
		r.resize(max(2*len(r.buf), ringMin))
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = *it
	r.n++
}

func (r *ring) pop(it *item) {
	slot := &r.buf[r.head]
	*it = *slot
	slot.h = nil // drop the reference for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	if c := len(r.buf); c > shrinkFloor && r.n < c/4 {
		r.resize(c / 2)
	}
}

// resize moves the queued items, in order, to a buffer of the given length.
func (r *ring) resize(size int) {
	buf := make([]item, size)
	k := copy(buf, r.buf[r.head:min(r.head+r.n, len(r.buf))])
	copy(buf[k:], r.buf[:r.n-k])
	r.buf, r.head = buf, 0
}

func (q *eventQueue) popHeap(top *item) {
	items := q.heap
	*top = items[0]
	n := len(items) - 1
	items[0] = items[n]
	items[n] = item{} // drop the handler reference for GC
	q.heap = items[:n]
	if n > 1 {
		q.siftDown(0)
	}
	if c := cap(q.heap); c > shrinkFloor && n < c/4 {
		shrunk := make([]item, n, max(c/2, shrinkFloor))
		copy(shrunk, q.heap)
		q.heap = shrunk
	}
}

// before reports whether a must run before b.
func before(a, b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) siftUp(i int) {
	items := q.heap
	it := items[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !before(&it, &items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = it
}

func (q *eventQueue) siftDown(i int) {
	items := q.heap
	n := len(items)
	it := items[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if before(&items[c], &items[best]) {
				best = c
			}
		}
		if !before(&items[best], &it) {
			break
		}
		items[i] = items[best]
		i = best
	}
	items[i] = it
}
