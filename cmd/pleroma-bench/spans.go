package main

import (
	"sync/atomic"
	"time"
)

// span is one bench-side span of the traced run: a timed interval around
// a call into the system. Spans of one closed-loop step share Step;
// Parent indexes the span that caused this one (-1 for a root). Times are
// nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	Step   int    `json:"step"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory. A nil recorder is the
// untraced run: every method is a no-op that reads no clock.
type recorder struct {
	t0    time.Time
	spans []span
	step  int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under parent (-1 opens a step's root span).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	if parent < 0 {
		r.step++
	}
	r.spans = append(r.spans, span{Name: name, Step: r.step, Parent: parent, Start: r.now()})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r != nil {
		r.spans[i].End = r.now()
	}
}

// handlerClock accumulates the time subscription handlers spend per step.
// Handlers of the TCP workloads run on a client's reader goroutine,
// concurrently with the generator, hence atomics.
type handlerClock struct {
	r     *recorder    // nil in the untraced run: no clock is read
	first atomic.Int64 // recorder time of the step's first handler call
	total atomic.Int64
}

// enter and leave bracket one handler invocation.
func (h *handlerClock) enter() int64 {
	if h.r == nil {
		return 0
	}
	t := h.r.now()
	h.first.CompareAndSwap(0, t)
	return t
}

func (h *handlerClock) leave(t int64) {
	if h.r != nil {
		h.total.Add(h.r.now() - t)
	}
}

// flush emits the step's aggregate "handler" span — Start is the first
// invocation, End-Start the summed handler time — and resets the clock.
// Called by the generator once the step's deliveries have all arrived.
func (h *handlerClock) flush(parent int) {
	if h.r == nil {
		return
	}
	first, total := h.first.Swap(0), h.total.Swap(0)
	if total == 0 {
		return
	}
	h.r.spans = append(h.r.spans, span{Name: "handler", Step: h.r.step, Parent: parent, Start: first, End: first + total})
}

// selfTimes sums, per span name, each span's duration minus the duration
// of its children.
func selfTimes(spans []span) map[string]int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}
