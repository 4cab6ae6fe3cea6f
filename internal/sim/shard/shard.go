// Package shard runs several sim.Engines in parallel under conservative
// (lookahead-based) synchronization — a multi-core discrete-event
// simulation in the classic Chandy-Misra-Bryant family, organised as
// barrier windows rather than per-link null messages.
//
// The model: the simulated world is partitioned into N shards, each owning
// a disjoint set of state and its own engine. Events an executing shard
// schedules for itself go straight onto its engine; events destined for
// another shard are buffered by the client (e.g. the data plane's typed
// mailboxes) and moved at the next barrier. Conservatism comes from the
// lookahead L: the minimum simulated delay any cross-shard interaction
// takes. Each window the coordinator computes the global minimum pending
// timestamp T and lets every shard execute events with timestamp ≤ T+L in
// parallel — any event generated for a neighbour during the window
// carries a timestamp ≥ T+L, so no shard can receive work in its past.
//
// Work that may touch every shard's state — a controller applying a
// request, a periodic re-index — runs on the coordinator's control engine
// instead. A control event at t executes on the goroutine driving Run, at
// a barrier with every shard idle: after every shard event before t and
// before any shard event at or after t. A window's horizon therefore never
// reaches a pending control event. A client that hands work to the control
// engine from a shard (the data plane's punts) buffers it like a
// cross-shard event and schedules it at the exchange; if that work
// schedules more control work, its delay must exceed the lookahead, so it
// lands after the window it was handed over from.
//
// Execution within a shard keeps the engine's (time, seq) total order, so
// a run is bit-for-bit deterministic for a fixed shard count: window
// horizons are a pure function of queue state, and the mailbox exchange
// drains senders in fixed shard order.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pleroma/internal/obs"
	"pleroma/internal/sim"
)

// Coordinator drives N shard engines through barrier windows. It is
// created once, owns one long-lived worker goroutine per shard, and is
// driven from a single goroutine (the same discipline as sim.Engine).
type Coordinator struct {
	lookahead time.Duration
	engines   []*sim.Engine
	// control is the control engine (see the package comment); with one
	// shard it is engines[0], so the single-engine order is unchanged.
	control *sim.Engine
	workers []*workerCtx
	wg      *sync.WaitGroup
	// exchange moves client-buffered cross-shard events into the
	// destination engines at a barrier; it reports whether anything moved.
	exchange func() bool
	// running is observable by clients (e.g. the data plane's injection
	// guard): true while a Run/RunUntil drain is in flight.
	running atomic.Bool
	// lifeMu guards started/closed: Close must be idempotent and safe to
	// race with another Close (e.g. an explicit System.Close racing the
	// finalizer path) or with the lazy worker start.
	lifeMu  sync.Mutex
	started bool
	closed  bool

	// Observability (nil without Instrument; all instruments are
	// nil-safe).
	obsWindows *obs.Counter
	obsHorizon *obs.Gauge
	obsDepth   []*obs.Gauge
	obsStalls  []*obs.Counter
}

// workerCtx is the slice of coordinator state a worker goroutine is
// allowed to reference. Workers deliberately do not hold the Coordinator
// itself, so an abandoned Coordinator becomes unreachable, its finalizer
// closes start, and the workers exit instead of leaking.
type workerCtx struct {
	eng   *sim.Engine
	start chan time.Duration
	wg    *sync.WaitGroup
}

func runWorker(w *workerCtx) {
	for horizon := range w.start {
		w.eng.RunWindow(horizon)
		w.wg.Done()
	}
}

// New builds a coordinator over n fresh engines with the given lookahead.
// A lookahead of zero is legal (windows degrade to one timestamp at a
// time); negative lookahead is rejected.
func New(n int, lookahead time.Duration) (*Coordinator, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least one shard, got %d", n)
	}
	if lookahead < 0 {
		return nil, fmt.Errorf("shard: negative lookahead %v", lookahead)
	}
	c := &Coordinator{
		lookahead: lookahead,
		engines:   make([]*sim.Engine, n),
		workers:   make([]*workerCtx, n),
		wg:        &sync.WaitGroup{},
	}
	for i := range c.engines {
		c.engines[i] = sim.NewEngine()
		c.workers[i] = &workerCtx{
			eng:   c.engines[i],
			start: make(chan time.Duration, 1),
			wg:    c.wg,
		}
	}
	c.control = c.engines[0]
	if n > 1 {
		c.control = sim.NewEngine()
	}
	// Backstop for callers that drop the coordinator without Close: the
	// workers hold only their workerCtx, so the coordinator is collectable
	// and the finalizer reaps the goroutines.
	runtime.SetFinalizer(c, (*Coordinator).Close)
	return c, nil
}

// Shards returns the number of shard engines.
func (c *Coordinator) Shards() int { return len(c.engines) }

// Lookahead returns the conservative synchronization lookahead.
func (c *Coordinator) Lookahead() time.Duration { return c.lookahead }

// Engine returns shard i's engine. Scheduling directly on it is only safe
// while no Run/RunUntil is in flight.
func (c *Coordinator) Engine(i int) *sim.Engine { return c.engines[i] }

// Control returns the control engine. Scheduling on it is safe from the
// goroutine driving Run — between runs, from a control event, or from the
// exchange hook — and from nowhere else.
func (c *Coordinator) Control() *sim.Engine { return c.control }

// SetExchange registers the barrier exchange hook. It is called with all
// shard engines idle and must move every buffered cross-shard event into
// its destination engine, returning whether any event moved.
func (c *Coordinator) SetExchange(f func() bool) { c.exchange = f }

// Running reports whether a drain is in flight. Clients use it to reject
// unsafe re-entrant injection from delivery handlers.
func (c *Coordinator) Running() bool { return c.running.Load() }

// Instrument attaches per-shard health metrics to reg: queue depth and
// barrier-stall counters per shard, plus the committed horizon and the
// total window count. Gauges are sampled at barrier windows.
func (c *Coordinator) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.obsWindows = reg.Counter(obs.MShardWindows, "Barrier windows executed by the parallel simulation engine.")
	c.obsHorizon = reg.Gauge(obs.MShardHorizon, "Committed simulation horizon of the parallel engine (ns).")
	depth := obs.NewVec[int](obs.NewGauge)
	stalls := obs.NewVec[int](obs.NewCounter)
	reg.AttachVec(obs.MShardQueueDepth, "Pending events per shard engine, sampled at barrier windows.", "shard", depth)
	reg.AttachVec(obs.MShardStalls, "Windows in which a shard had no runnable event and stalled at the barrier.", "shard", stalls)
	c.obsDepth = make([]*obs.Gauge, len(c.engines))
	c.obsStalls = make([]*obs.Counter, len(c.engines))
	for i := range c.engines {
		c.obsDepth[i] = depth.With(i)
		c.obsStalls[i] = stalls.With(i)
	}
}

// ensureWorkers starts the worker goroutines on first use. A closed
// coordinator stays closed: no workers are started after Close.
func (c *Coordinator) ensureWorkers() {
	if len(c.engines) == 1 {
		return
	}
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	if c.started || c.closed {
		return
	}
	c.started = true
	for _, w := range c.workers {
		go runWorker(w)
	}
}

// Close stops the worker goroutines. The coordinator must not be used
// afterwards. Idempotent and safe to call concurrently (an explicit close
// can race the finalizer-driven one); also installed as a finalizer.
func (c *Coordinator) Close() {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	runtime.SetFinalizer(c, nil)
	if c.started {
		for _, w := range c.workers {
			close(w.start)
		}
	}
}

// nextAt returns the earliest pending timestamp across all shards.
func (c *Coordinator) nextAt() (time.Duration, bool) {
	var tmin time.Duration
	ok := false
	for _, e := range c.engines {
		if at, has := e.NextAt(); has && (!ok || at < tmin) {
			tmin, ok = at, true
		}
	}
	return tmin, ok
}

// window runs one barrier window: every shard with a runnable event
// executes up to horizon in parallel; shards without one record a stall.
func (c *Coordinator) window(horizon time.Duration) {
	dispatched := 0
	last := -1
	for i, e := range c.engines {
		if at, ok := e.NextAt(); ok && at <= horizon {
			dispatched++
			last = i
		}
	}
	if dispatched == 1 {
		// A solo shard needs no barrier: run it inline and skip the
		// worker round-trip. This is the common case at workload edges
		// (e.g. a publisher's first hops before the tree fans out).
		c.engines[last].RunWindow(horizon)
		if c.obsStalls != nil {
			for i := range c.engines {
				if i != last {
					c.obsStalls[i].Inc()
				}
			}
		}
	} else {
		for i, e := range c.engines {
			if at, ok := e.NextAt(); ok && at <= horizon {
				c.wg.Add(1)
				c.workers[i].start <- horizon
			} else if c.obsStalls != nil {
				c.obsStalls[i].Inc()
			}
		}
		c.wg.Wait()
	}
	c.obsWindows.Inc()
	c.obsHorizon.Set(int64(horizon))
	if c.obsDepth != nil {
		for i, e := range c.engines {
			c.obsDepth[i].Set(int64(e.Pending()))
		}
	}
}

// Run executes windows until every shard queue and mailbox is empty, then
// aligns all shard clocks to the global maximum and returns it. With one
// shard it is exactly sim.Engine.Run.
func (c *Coordinator) Run() time.Duration {
	return c.run(0, false)
}

// RunUntil executes events with timestamps not after deadline, then sets
// every shard clock to the deadline (if not already past) and returns it.
func (c *Coordinator) RunUntil(deadline time.Duration) time.Duration {
	return c.run(deadline, true)
}

// Now returns the committed simulated time: the maximum shard and control
// clock. Only meaningful while no drain is in flight (clocks are aligned at
// the end of every Run/RunUntil).
func (c *Coordinator) Now() time.Duration {
	now := c.control.Now()
	for _, e := range c.engines {
		if e.Now() > now {
			now = e.Now()
		}
	}
	return now
}

func (c *Coordinator) run(deadline time.Duration, bounded bool) time.Duration {
	if len(c.engines) == 1 {
		// Degenerate single-shard form: defer to the engine directly so
		// behaviour (and performance) is exactly the classic path.
		e := c.engines[0]
		if c.exchange != nil {
			c.exchange()
		}
		if bounded {
			return e.RunUntil(deadline)
		}
		return e.Run()
	}
	c.ensureWorkers()
	c.running.Store(true)
	for {
		if c.exchange != nil {
			c.exchange()
		}
		tmin, ok := c.nextAt()
		cat, cok := c.control.NextAt()
		if cok && (!ok || cat <= tmin) {
			// The control event orders before every pending shard event:
			// run it, and what it schedules at its own instant, with every
			// shard idle.
			if bounded && cat > deadline {
				break
			}
			c.control.RunWindow(cat)
			continue
		}
		if !ok || (bounded && tmin > deadline) {
			// Nothing runnable; a final exchange already happened at the
			// top of this iteration, so the mailboxes are empty too.
			break
		}
		horizon := tmin + c.lookahead
		if cok && horizon >= cat {
			horizon = cat - 1
		}
		if bounded && horizon > deadline {
			horizon = deadline
		}
		c.window(horizon)
	}
	c.running.Store(false)
	end := c.Now()
	if bounded && deadline > end {
		end = deadline
	}
	for _, e := range c.engines {
		// Every engine has nothing left to execute (up to the deadline),
		// but only those dispatched in the last window know it: end the
		// drain on each as its own Run/RunUntil would, so keys reserved on
		// it (sim.Engine.Passed) count as passed exactly as after a
		// single-engine drain.
		if bounded {
			e.RunWindow(deadline)
		} else {
			e.Run()
		}
		e.AdvanceTo(end)
	}
	c.control.AdvanceTo(end)
	return end
}
