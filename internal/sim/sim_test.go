package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	e.ScheduleEvent(30*time.Millisecond, r, Event{Kind: 3})
	e.ScheduleEvent(10*time.Millisecond, r, Event{Kind: 1})
	e.ScheduleEvent(20*time.Millisecond, r, Event{Kind: 2})
	end := e.Run()
	if end != 30*time.Millisecond {
		t.Errorf("end=%v, want 30ms", end)
	}
	if got := r.kinds(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order=%v", got)
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	for i := 0; i < 10; i++ {
		e.ScheduleEvent(5*time.Millisecond, r, Event{Ref: uint32(i)})
	}
	e.Run()
	for i, ev := range r.evs {
		if ev.Ref != uint32(i) {
			t.Fatalf("same-instant events must run FIFO, got %+v", r.evs)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	var h handlerFunc
	h = func(ev Event) {
		r.HandleEvent(ev)
		if ev.Kind == 1 {
			e.ScheduleEvent(2*time.Millisecond, h, Event{Kind: 2})
		}
	}
	e.ScheduleEvent(time.Millisecond, h, Event{Kind: 1})
	e.Run()
	if len(r.ats) != 2 || r.ats[0] != time.Millisecond || r.ats[1] != 3*time.Millisecond {
		t.Errorf("trace=%v", r.ats)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	e.ScheduleEvent(time.Millisecond, r, Event{})
	e.ScheduleEvent(3*time.Millisecond, r, Event{})
	e.ScheduleEvent(10*time.Millisecond, r, Event{})
	now := e.RunUntil(5 * time.Millisecond)
	if now != 5*time.Millisecond {
		t.Errorf("now=%v", now)
	}
	if len(r.evs) != 2 {
		t.Errorf("ran=%d, want 2", len(r.evs))
	}
	if e.Pending() != 1 {
		t.Errorf("pending=%d, want 1", e.Pending())
	}
	e.Run()
	if len(r.evs) != 3 {
		t.Errorf("ran=%d, want 3", len(r.evs))
	}
}

func TestStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty queue must return false")
	}
	if e.Now() != 0 {
		t.Error("clock must stay at zero")
	}
}

// TestPropertyMonotoneClock: for any set of scheduled delays, events run in
// nondecreasing time order and the final clock equals the max delay.
func TestPropertyMonotoneClock(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		rec := &recorder{e: e}
		n := 1 + r.Intn(50)
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(r.Intn(1000)) * time.Microsecond
			e.ScheduleEvent(delays[i], rec, Event{})
		}
		e.Run()
		times := rec.ats
		if len(times) != n {
			return false
		}
		if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
			return false
		}
		maxDelay := delays[0]
		for _, d := range delays[1:] {
			if d > maxDelay {
				maxDelay = d
			}
		}
		return e.Now() == maxDelay
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// recorder implements Handler and logs each event with its instant.
type recorder struct {
	e   *Engine
	evs []Event
	ats []time.Duration
}

func (r *recorder) HandleEvent(ev Event) {
	r.evs = append(r.evs, ev)
	r.ats = append(r.ats, r.e.Now())
}

// kinds returns the Kind of every recorded event, in execution order.
func (r *recorder) kinds() []uint8 {
	out := make([]uint8, len(r.evs))
	for i, ev := range r.evs {
		out[i] = ev.Kind
	}
	return out
}

func TestTypedEventDelivery(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	e.ScheduleEvent(2*time.Millisecond, r, Event{Kind: 7, A: -3, B: 42, Ref: 9})
	e.ScheduleEvent(time.Millisecond, r, Event{Kind: 1})
	e.AtEvent(3*time.Millisecond, r, Event{Kind: 2, Ref: 1})
	e.Run()
	if len(r.evs) != 3 {
		t.Fatalf("got %d events, want 3", len(r.evs))
	}
	if r.evs[0].Kind != 1 || r.evs[1].Kind != 7 || r.evs[2].Kind != 2 {
		t.Errorf("kinds out of order: %+v", r.evs)
	}
	if r.evs[1].A != -3 || r.evs[1].B != 42 || r.evs[1].Ref != 9 {
		t.Errorf("payload corrupted: %+v", r.evs[1])
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	for i, at := range r.ats {
		if at != want[i] {
			t.Errorf("event %d at %v, want %v", i, at, want[i])
		}
	}
}

// handlerFunc is this file's adapter from a function to a Handler: a test
// that builds its handler inline schedules it like any other.
type handlerFunc func(Event)

func (f handlerFunc) HandleEvent(ev Event) { f(ev) }

func TestTypedEventClamping(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	e.ScheduleEvent(time.Second, handlerFunc(func(Event) {
		e.ScheduleEvent(-time.Hour, r, Event{Kind: 1})
		e.AtEvent(0, r, Event{Kind: 2})
	}), Event{})
	e.Run()
	if len(r.ats) != 2 || r.ats[0] != time.Second || r.ats[1] != time.Second {
		t.Errorf("clamped typed events ran at %v", r.ats)
	}
}

// drain is a no-op handler for benchmarks: a pointer receiver so the
// Handler interface value carries an existing pointer, never boxing.
type drain struct{ n int }

func (d *drain) HandleEvent(Event) { d.n++ }

// BenchmarkEngineScheduleRun measures the typed steady-state hot path —
// schedule+run cycles against a warm queue, one event in flight and 97
// distinct delays. The inline queue must report 0 allocs/op.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	d := &drain{}
	// Warm the queue's backing array.
	for j := 0; j < 1024; j++ {
		e.ScheduleEvent(time.Duration(j%97)*time.Microsecond, d, Event{Kind: 1, Ref: uint32(j)})
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleEvent(time.Duration(i%97)*time.Microsecond, d, Event{Kind: 1, Ref: uint32(i)})
		e.Step()
	}
}

// pipeline is the shape of emulated forwarding: every executed event
// schedules its successor after one of two constant delays, alternately
// (a table lookup, then a link).
type pipeline struct{ e *Engine }

func (p *pipeline) HandleEvent(ev Event) {
	if ev.Kind == 1 {
		p.e.ScheduleEvent(10*time.Microsecond, p, Event{Kind: 2, Ref: ev.Ref})
	} else {
		p.e.ScheduleEvent(50512*time.Nanosecond, p, Event{Kind: 1, Ref: ev.Ref})
	}
}

// BenchmarkEnginePipeline is the loaded counterpart of
// BenchmarkEngineScheduleRun: 1024 events stay in flight, so a queue that
// pays per-event cost growing with its depth shows it here. One op is one
// executed event (and the push it makes). 0 allocs/op.
func BenchmarkEnginePipeline(b *testing.B) {
	e := NewEngine()
	p := &pipeline{e: e}
	for j := 0; j < 1024; j++ {
		e.ScheduleEvent(time.Duration(j)*100*time.Nanosecond, p, Event{Kind: 1, Ref: uint32(j)})
	}
	for i := 0; i < 4096; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
