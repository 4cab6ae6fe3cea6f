package sim

import (
	"math/rand"
	"testing"
	"time"
)

// queueCapacity is the number of item slots the engine's queue holds on to,
// lanes and heap together — the one thing these tests read that the public
// face does not show.
func queueCapacity(e *Engine) int {
	c := cap(e.queue.heap)
	for i := range e.queue.lanes {
		c += len(e.queue.lanes[i].buf)
	}
	return c
}

// TestQueueShrinksAfterBurst pins the capacity-release behaviour: a burst
// far above steady state must not pin its peak arrays (and the per-slot
// closure/handler references) for the life of the engine — whether the
// burst was sorted and sat in a lane or unsorted and sat in the heap — and
// a small queue must reuse its arrays, not reallocate them.
func TestQueueShrinksAfterBurst(t *testing.T) {
	const burst = 100_000
	const floor = (numLanes + 1) * shrinkFloor
	shapes := []struct {
		name string
		at   func(i int) time.Duration
	}{
		{"sorted-lane", func(i int) time.Duration { return time.Duration(i) }},
		{"reversed-heap", func(i int) time.Duration { return time.Duration(burst - i) }},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			e := NewEngine()
			// Timestamps are distinct, so running in clock order is the
			// whole order — through every array the drain reallocates.
			last := time.Duration(-1)
			h := &countHandler{n: new(int), check: func() {
				if e.Now() <= last {
					t.Fatalf("event at %v ran after the one at %v", e.Now(), last)
				}
				last = e.Now()
			}}
			for i := 0; i < burst; i++ {
				e.AtEvent(shape.at(i), h, Event{Kind: 1})
			}
			if peak := queueCapacity(e); peak < burst {
				t.Fatalf("burst capacity %d, want >= %d", peak, burst)
			}
			// Drain to a steady-state trickle: capacity must have been released.
			for e.Pending() > 64 {
				e.Step()
			}
			if c := queueCapacity(e); c > floor {
				t.Errorf("capacity %d still pinned after drain to %d events (floor %d)",
					c, e.Pending(), floor)
			}
			e.Run()
			if *h.n != burst {
				t.Fatalf("executed %d events, want %d", *h.n, burst)
			}
		})
	}

	// A small queue must never thrash allocation: below the floors the
	// capacity is retained and a schedule/run cycle allocates nothing.
	e := NewEngine()
	h := &countHandler{n: new(int)}
	cycle := func() {
		for i := 0; i < 128; i++ {
			e.ScheduleEvent(time.Duration(i%3), h, Event{})
			e.ScheduleEvent(time.Duration(7-i%7), h, Event{})
		}
		e.Run()
	}
	cycle()
	c0 := queueCapacity(e)
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("small-queue cycle allocates %.1f times; steady state must reuse", allocs)
	}
	if c := queueCapacity(e); c != c0 {
		t.Errorf("small-queue capacity changed %d -> %d; steady state must reuse", c0, c)
	}
}

type countHandler struct {
	n     *int
	check func() // optional, called on every event
}

func (c *countHandler) HandleEvent(Event) {
	*c.n++
	if c.check != nil {
		c.check()
	}
}

// The order tests drive an Engine and a model of it with the same script
// and compare everything the public face shows after every operation. The
// model keeps its pending events in an unordered slice and finds the next
// one by scanning for the (at, seq) minimum — the sort oracle — so it
// shares nothing with lanes, rings or the heap. A key taken with ReserveSeq
// is, in the model, a queued marker event that does nothing: Passed must
// say exactly whether the marker would have run (markers do not count as
// steps, pending events or clock movement — they are what a caller saved
// itself from scheduling).

type modelEvent struct {
	at     time.Duration
	seq    uint64
	ref    uint32
	marker bool
}

type execRec struct {
	ref uint32
	at  time.Duration
}

type model struct {
	now     time.Duration
	seq     uint64
	pending []modelEvent
	passed  map[uint64]bool // marker seq -> has run
	log     []execRec
	nextRef uint32
}

func (m *model) push(at time.Duration, ref uint32, marker bool) uint64 {
	if at < m.now {
		at = m.now
	}
	m.seq++
	m.pending = append(m.pending, modelEvent{at: at, seq: m.seq, ref: ref, marker: marker})
	return m.seq
}

// next returns the index of the minimum pending event, real events only
// when realOnly is set, or -1.
func (m *model) next(realOnly bool) int {
	best := -1
	for i, ev := range m.pending {
		if realOnly && ev.marker {
			continue
		}
		if best < 0 || ev.at < m.pending[best].at ||
			(ev.at == m.pending[best].at && ev.seq < m.pending[best].seq) {
			best = i
		}
	}
	return best
}

// exec removes pending[i] and runs it: a marker is noted as passed, a real
// event moves the clock, is logged and spawns what its ref encodes.
func (m *model) exec(i int) {
	ev := m.pending[i]
	m.pending[i] = m.pending[len(m.pending)-1]
	m.pending = m.pending[:len(m.pending)-1]
	if ev.marker {
		m.passed[ev.seq] = true
		return
	}
	m.now = ev.at
	m.log = append(m.log, execRec{ev.ref, ev.at})
	if delay, ok := spawnOf(ev.ref); ok {
		m.nextRef++
		m.push(m.now+delay, m.nextRef<<8, false)
	}
}

// step runs the markers ahead of the next real event and then that event;
// with no real event left it runs every marker and reports false.
func (m *model) step() bool {
	for {
		i := m.next(false)
		if i < 0 {
			return false
		}
		marker := m.pending[i].marker
		m.exec(i)
		if !marker {
			return true
		}
	}
}

func (m *model) runWindow(horizon time.Duration) int {
	n := 0
	for {
		i := m.next(false)
		if i < 0 || m.pending[i].at > horizon {
			return n
		}
		if !m.pending[i].marker {
			n++
		}
		m.exec(i)
	}
}

func (m *model) pendingReal() int {
	n := 0
	for _, ev := range m.pending {
		if !ev.marker {
			n++
		}
	}
	return n
}

// spawnOf decodes what an executed event schedules: refs whose low byte is
// odd spawn one child after (low byte >> 1) % 8 ticks, so the engine is
// pushed to from inside handlers the way the data plane does it. Children
// get refs with a zero low byte and spawn nothing.
func spawnOf(ref uint32) (time.Duration, bool) {
	low := ref & 0xff
	if low&1 == 0 {
		return 0, false
	}
	return time.Duration((low >> 1) % 8), true
}

// scriptEngine is the engine side of the pair: executed events are logged
// and spawn their children from inside the handler.
type scriptEngine struct {
	e       *Engine
	log     []execRec
	nextRef uint32
}

func (s *scriptEngine) HandleEvent(ev Event) {
	s.log = append(s.log, execRec{ev.Ref, s.e.Now()})
	if delay, ok := spawnOf(ev.Ref); ok {
		s.nextRef++
		s.schedule(s.e.Now()+delay, s.nextRef<<8)
	}
}

// schedule queues a real event.
func (s *scriptEngine) schedule(at time.Duration, ref uint32) {
	s.e.AtEvent(at, s, Event{Kind: 1, Ref: ref})
}

// runQueueScript interprets script — two bytes per operation — on an engine
// and on the model and fails on the first difference. It returns how many
// pushes found the heap non-empty afterwards, so callers can assert that a
// script reached both containers.
func runQueueScript(t *testing.T, script []byte) (heapPushes int) {
	t.Helper()
	s := &scriptEngine{e: NewEngine()}
	e := s.e
	m := &model{passed: make(map[uint64]bool)}
	type marker struct {
		at  time.Duration
		seq uint64
	}
	var markers []marker
	// RunWindow leaves the clock behind its horizon; horizons never go back
	// (the coordinator's do not, and Passed is specified for that).
	var horizon time.Duration

	checked := 0 // log entries already compared
	check := func(op int, what string) {
		t.Helper()
		if len(s.log) != len(m.log) {
			t.Fatalf("op %d (%s): engine executed %d events, oracle %d", op, what, len(s.log), len(m.log))
		}
		for ; checked < len(s.log); checked++ {
			if s.log[checked] != m.log[checked] {
				t.Fatalf("op %d (%s): execution %d is %+v, oracle %+v",
					op, what, checked, s.log[checked], m.log[checked])
			}
		}
		if e.Now() != m.now {
			t.Fatalf("op %d (%s): clock %v, oracle %v", op, what, e.Now(), m.now)
		}
		if e.Pending() != m.pendingReal() {
			t.Fatalf("op %d (%s): Pending %d, oracle %d", op, what, e.Pending(), m.pendingReal())
		}
		at, ok := e.NextAt()
		if i := m.next(true); ok != (i >= 0) || (ok && at != m.pending[i].at) {
			t.Fatalf("op %d (%s): NextAt %v,%v disagrees with oracle", op, what, at, ok)
		}
		for _, mk := range markers {
			if got := e.Passed(mk.at, mk.seq); got != m.passed[mk.seq] {
				t.Fatalf("op %d (%s): Passed(%v, %d) = %v, oracle marker ran = %v",
					op, what, mk.at, mk.seq, got, m.passed[mk.seq])
			}
		}
	}

	for op := 0; 2*op+1 < len(script); op++ {
		code, arg := script[2*op], script[2*op+1]
		// Coarse timestamps force frequent ties, the case where only the
		// seq tiebreak keeps the order total; the wide form scatters pushes
		// over more runs than there are lanes, so the heap fills too.
		delay := time.Duration(arg % 4)
		if code&0x80 != 0 {
			delay = time.Duration(arg % 64)
		}
		var what string
		switch code % 8 {
		case 0, 1, 2:
			what = "push"
			s.nextRef++
			m.nextRef++
			ref := s.nextRef<<8 | uint32(arg)
			s.schedule(e.Now()+delay, ref)
			m.push(m.now+delay, ref, false)
			if len(e.queue.heap) > 0 {
				heapPushes++
			}
		case 3:
			what = "push-absolute"
			s.nextRef++
			m.nextRef++
			ref := s.nextRef << 8
			s.schedule(time.Duration(arg%32), ref) // often in the past: clamped
			m.push(time.Duration(arg%32), ref, false)
		case 4:
			what = "step"
			if got, want := e.Step(), m.step(); got != want {
				t.Fatalf("op %d: Step = %v, oracle %v", op, got, want)
			}
		case 5:
			what = "run-window"
			horizon = max(horizon, m.now+delay)
			if got, want := e.RunWindow(horizon), m.runWindow(horizon); got != want {
				t.Fatalf("op %d: RunWindow executed %d, oracle %d", op, got, want)
			}
		case 6:
			what = "run-until"
			horizon = max(horizon, m.now+delay)
			deadline := horizon
			e.RunUntil(deadline)
			m.runWindow(deadline)
			if deadline > m.now {
				m.now = deadline
			}
		case 7:
			if arg&1 == 0 {
				what = "reserve"
				at := e.Now() + delay
				seq := e.ReserveSeq()
				if mseq := m.push(at, 0, true); mseq != seq {
					t.Fatalf("op %d: ReserveSeq = %d, oracle %d", op, seq, mseq)
				}
				markers = append(markers, marker{at, seq})
			} else {
				// The clock stays monotone: never advance past a queued
				// event (the coordinator aligns clocks only at barriers).
				what = "advance"
				to := m.now + delay
				if i := m.next(true); i >= 0 && m.pending[i].at < to {
					to = m.pending[i].at
				}
				e.AdvanceTo(to)
				if to > m.now {
					m.now = to
				}
			}
		}
		check(op, what)
	}
	e.Run()
	for m.step() {
	}
	check(len(script)/2, "final run")
	if e.Step() || e.Pending() != 0 {
		t.Fatalf("engine not empty after the final run")
	}
	return heapPushes
}

// TestHeapPropertyAgainstSortOracle drives random interleaved push/pop
// sequences — heavy timestamp ties, pushes from inside
// handlers, window and deadline cuts, clock advances, reserved keys —
// through the heap and the lanes in front of it alike: every execution
// must come out in exact (at, seq) order and every observable must match
// the oracle's.
func TestHeapPropertyAgainstSortOracle(t *testing.T) {
	heapPushes := 0
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		script := make([]byte, 2*1500)
		r.Read(script)
		// Bias by seed: even seeds push more than they pop so the queue
		// grows deep; odd ones stay shallow and hit the empty-queue edges.
		if seed%2 == 0 {
			for i := 0; i < len(script); i += 2 {
				if script[i]%8 >= 4 && r.Intn(2) == 0 {
					script[i] &^= 7
				}
			}
		}
		heapPushes += runQueueScript(t, script)
	}
	if heapPushes == 0 {
		t.Fatal("no script reached the heap: the fallback path went untested")
	}
}

// FuzzEventQueueOrder is the fuzzing form of the oracle test: the input
// bytes are the script. The committed corpus (testdata/fuzz) holds a tie
// storm, a reversed burst that lands in the heap, window cuts at tied
// timestamps and reserved keys at the current instant.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 7, 0, 7, 4, 0, 0, 3, 4, 0, 4, 0})
	f.Add([]byte{0x80, 40, 0x80, 30, 0x80, 20, 0x80, 10, 0x80, 9, 0x80, 8, 0x80, 7, 0x80, 6, 0x80, 5, 0x80, 4, 4, 0, 4, 0})
	f.Add([]byte{7, 0, 0, 0, 7, 2, 4, 0, 5, 1, 7, 0, 6, 2, 4, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096] // the oracle is quadratic
		}
		runQueueScript(t, script)
	})
}

// TestRunUntilBoundaryExactlyOnce pins the deadline-boundary contract:
// events scheduled exactly at the deadline execute during that RunUntil,
// exactly once, and never again on subsequent runs.
func TestRunUntilBoundaryExactlyOnce(t *testing.T) {
	e := NewEngine()
	execs := make(map[string]int)
	deadline := 100 * time.Microsecond
	names := []string{"at-boundary", "at-boundary-2", "after-boundary", "before-boundary"}
	h := handlerFunc(func(ev Event) { execs[names[ev.Ref]]++ })
	e.AtEvent(deadline, h, Event{Ref: 0})
	e.AtEvent(deadline, h, Event{Ref: 1})
	e.AtEvent(deadline+1, h, Event{Ref: 2})
	e.AtEvent(deadline-1, h, Event{Ref: 3})

	if got := e.RunUntil(deadline); got != deadline {
		t.Fatalf("RunUntil returned %v, want %v", got, deadline)
	}
	if execs["before-boundary"] != 1 || execs["at-boundary"] != 1 || execs["at-boundary-2"] != 1 {
		t.Fatalf("boundary events not executed exactly once: %v", execs)
	}
	if execs["after-boundary"] != 0 {
		t.Fatalf("event after deadline executed early: %v", execs)
	}
	// Re-running to the same deadline must be a no-op for them.
	e.RunUntil(deadline)
	if execs["at-boundary"] != 1 || execs["at-boundary-2"] != 1 {
		t.Fatalf("boundary events re-executed: %v", execs)
	}
	e.Run()
	if execs["after-boundary"] != 1 {
		t.Fatalf("post-deadline event lost: %v", execs)
	}
}

// TestRunWindowLeavesClockAtLastEvent pins the shard primitive: RunWindow
// executes through the horizon inclusively but leaves the clock at the
// last executed event, and NextAt/AdvanceTo behave as the coordinator
// expects.
func TestRunWindowLeavesClockAtLastEvent(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	for _, at := range []time.Duration{5, 10, 15, 20} {
		e.AtEvent(at, r, Event{})
	}
	if at, ok := e.NextAt(); !ok || at != 5 {
		t.Fatalf("NextAt = %v,%v, want 5,true", at, ok)
	}
	if n := e.RunWindow(15); n != 3 {
		t.Fatalf("RunWindow executed %d events, want 3", n)
	}
	if e.Now() != 15 {
		t.Fatalf("clock at %v after window, want 15 (not the horizon)", e.Now())
	}
	if at, ok := e.NextAt(); !ok || at != 20 {
		t.Fatalf("NextAt = %v,%v, want 20,true", at, ok)
	}
	e.AdvanceTo(17)
	if e.Now() != 17 {
		t.Fatalf("AdvanceTo(17) left clock at %v", e.Now())
	}
	e.AdvanceTo(3) // never backwards
	if e.Now() != 17 {
		t.Fatalf("AdvanceTo moved the clock backwards to %v", e.Now())
	}
	e.Run()
	if len(r.ats) != 4 {
		t.Fatalf("ran %v, want all four events", r.ats)
	}
}
