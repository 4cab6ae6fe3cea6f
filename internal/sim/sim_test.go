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
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30*time.Millisecond {
		t.Errorf("end=%v, want 30ms", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order=%v", got)
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events must run FIFO, got %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []time.Duration
	e.Schedule(time.Millisecond, func() {
		trace = append(trace, e.Now())
		e.Schedule(2*time.Millisecond, func() {
			trace = append(trace, e.Now())
		})
	})
	e.Run()
	if len(trace) != 2 || trace[0] != time.Millisecond || trace[1] != 3*time.Millisecond {
		t.Errorf("trace=%v", trace)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		e.Schedule(-time.Hour, func() {
			if e.Now() != time.Second {
				t.Errorf("clamped event ran at %v", e.Now())
			}
		})
	})
	e.Run()
}

func TestAtInPastClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		e.At(0, func() {
			if e.Now() != time.Second {
				t.Errorf("past event ran at %v", e.Now())
			}
		})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(time.Millisecond, func() { ran++ })
	e.Schedule(3*time.Millisecond, func() { ran++ })
	e.Schedule(10*time.Millisecond, func() { ran++ })
	now := e.RunUntil(5 * time.Millisecond)
	if now != 5*time.Millisecond {
		t.Errorf("now=%v", now)
	}
	if ran != 2 {
		t.Errorf("ran=%d, want 2", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("pending=%d, want 1", e.Pending())
	}
	e.Run()
	if ran != 3 {
		t.Errorf("ran=%d, want 3", ran)
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
		n := 1 + r.Intn(50)
		delays := make([]time.Duration, n)
		var times []time.Duration
		for i := range delays {
			delays[i] = time.Duration(r.Intn(1000)) * time.Microsecond
			e.Schedule(delays[i], func() { times = append(times, e.Now()) })
		}
		e.Run()
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

// TestMixedFormsShareOrder: closures and typed events scheduled at the same
// instant interleave strictly by insertion order — one (time, seq) sequence.
func TestMixedFormsShareOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	r := &recorder{e: e}
	e.Schedule(time.Millisecond, func() { got = append(got, 0) })
	e.ScheduleEvent(time.Millisecond, handlerFunc(func(Event) { got = append(got, 1) }), Event{})
	e.Schedule(time.Millisecond, func() { got = append(got, 2) })
	e.ScheduleEvent(time.Millisecond, r, Event{Kind: 3})
	e.Schedule(time.Millisecond, func() { got = append(got, 4) })
	e.Run()
	if len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 4 {
		t.Errorf("interleaving=%v", got)
	}
	if len(r.evs) != 1 || r.evs[0].Kind != 3 {
		t.Errorf("typed event lost: %+v", r.evs)
	}
}

type handlerFunc func(Event)

func (f handlerFunc) HandleEvent(ev Event) { f(ev) }

func TestTypedEventClamping(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	e.Schedule(time.Second, func() {
		e.ScheduleEvent(-time.Hour, r, Event{Kind: 1})
		e.AtEvent(0, r, Event{Kind: 2})
	})
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

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j%97)*time.Microsecond, func() {})
		}
		e.Run()
	}
}
