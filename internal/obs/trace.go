package obs

import (
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpanEvents bounds the event list of a single span so a pathological
// reconfiguration (thousands of switches touched) cannot grow a span
// without limit; past the cap events are counted but dropped.
const maxSpanEvents = 256

// Tracer assigns trace IDs to control-plane operations and keeps the most
// recent completed spans in a bounded ring buffer. A nil Tracer is a
// valid, disabled tracer: StartSpan returns a nil *Span whose methods are
// all no-ops.
type Tracer struct {
	next atomic.Uint64
	base uint64 // per-tracer scramble mixed into minted trace ids

	mu   sync.Mutex
	ring []*Span // ring buffer of completed spans
	pos  int     // next write position
	full bool

	sink *slog.Logger // optional; receives one record per completed span
}

// traceSeed differentiates tracers (and processes): span IDs are small
// per-tracer counters, but trace ids must be unique deployment-wide
// because a daemon files remote spans from many client processes into one
// ring, keyed by trace id.
var traceSeed atomic.Uint64

func init() { traceSeed.Store(uint64(time.Now().UnixNano())) }

// mix64 is splitmix64's finalizer: a cheap bijective scrambler.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewTracer returns a tracer retaining the last capacity completed spans
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		base: mix64(traceSeed.Add(0x9e3779b97f4a7c15)),
		ring: make([]*Span, capacity),
	}
}

// SetSink mirrors every completed span as one structured log record.
func (t *Tracer) SetSink(l *slog.Logger) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = l
	t.mu.Unlock()
}

// StartSpan opens a span for one control operation. Op is the operation
// kind (advertise, subscribe, ...), target the primary argument rendered
// as text (typically the dz expression). The span must be finished with
// End to enter the ring buffer.
func (t *Tracer) StartSpan(op, target string) *Span {
	if t == nil {
		return nil
	}
	id := t.next.Add(1)
	tid := mix64(t.base + id)
	if tid == 0 {
		tid = 1
	}
	return &Span{
		tracer:  t,
		ID:      id,
		TraceID: tid,
		Op:      op,
		Target:  target,
		Start:   time.Now(),
	}
}

// StartRemoteSpan opens a span that continues a trace started elsewhere —
// another process across the transport boundary, or another span in this
// one: the new span joins traceID and is parented to parentID instead of
// minting a fresh trace. A zero traceID (untraced context) returns a nil
// no-op span.
func (t *Tracer) StartRemoteSpan(traceID, parentID uint64, op, target string) *Span {
	if t == nil || traceID == 0 {
		return nil
	}
	return &Span{
		tracer:   t,
		ID:       t.next.Add(1),
		TraceID:  traceID,
		ParentID: parentID,
		Op:       op,
		Target:   target,
		Start:    time.Now(),
	}
}

// record files a completed span.
func (t *Tracer) record(s *Span) {
	t.mu.Lock()
	t.ring[t.pos] = s
	t.pos++
	if t.pos == len(t.ring) {
		t.pos = 0
		t.full = true
	}
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		s.log(sink)
	}
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Span
	if t.full {
		out = append(out, t.ring[t.pos:]...)
		out = append(out, t.ring[:t.pos]...)
	} else {
		out = append(out, t.ring[:t.pos]...)
	}
	return out
}

// SpansByTrace returns the retained spans belonging to one trace, oldest
// first.
func (t *Tracer) SpansByTrace(id uint64) []*Span {
	if t == nil || id == 0 {
		return nil
	}
	var out []*Span
	for _, s := range t.Spans() {
		if s.TraceID == id {
			out = append(out, s)
		}
	}
	return out
}

// Event is one structured step inside a span.
type Event struct {
	At   time.Duration // offset from span start
	Msg  string
	Attr map[string]string
}

// Span is the trace of one control-plane operation. The identifying
// fields are written once at StartSpan. One goroutine at a time annotates
// and ends a span: the goroutine driving the System for a controller op,
// the caller or the request-completing transport goroutine for a client
// publish. The mutable state is guarded by mu because others read it: a
// span in the ring is read by /traces, the trace-log sink and Spans callers,
// and a late Event or End may race with them.
type Span struct {
	tracer *Tracer

	ID uint64
	// TraceID groups the spans of one end-to-end operation, across
	// processes: a root span (StartSpan) mints it, a continuation span
	// (StartRemoteSpan) joins it.
	TraceID uint64
	// ParentID is the span this one is parented to (0 for a root). The
	// parent may live in another process's tracer.
	ParentID uint64
	Op       string
	Target   string
	Start    time.Time

	mu       sync.Mutex
	events   []Event
	dropped  int
	err      string
	duration time.Duration
	done     bool
}

// Event appends a structured event; attrs are alternating key, value
// strings (a trailing key without value is ignored).
func (s *Span) Event(msg string, attrs ...string) {
	if s == nil {
		return
	}
	var m map[string]string
	if len(attrs) >= 2 {
		m = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			m[attrs[i]] = attrs[i+1]
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return
	}
	if len(s.events) >= maxSpanEvents {
		s.dropped++
		return
	}
	s.events = append(s.events, Event{At: time.Since(s.Start), Msg: msg, Attr: m})
}

// End closes the span, records the outcome, and files it in the tracer's
// ring buffer. Calling End twice is a no-op.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.duration = time.Since(s.Start)
	if err != nil {
		s.err = err.Error()
	}
	s.mu.Unlock()
	s.tracer.record(s)
}

// Duration returns the span's wall-clock duration (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.duration
}

// Err returns the error message the span ended with ("" on success).
func (s *Span) Err() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Events returns a copy of the span's events.
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// log emits the completed span as one slog record.
func (s *Span) log(l *slog.Logger) {
	s.mu.Lock()
	attrs := []slog.Attr{
		slog.Uint64("trace", s.TraceID),
		slog.Uint64("span", s.ID),
		slog.String("op", s.Op),
		slog.String("target", s.Target),
		slog.Duration("duration", s.duration),
		slog.Int("events", len(s.events)),
	}
	errMsg := s.err
	s.mu.Unlock()
	if errMsg != "" {
		attrs = append(attrs, slog.String("err", errMsg))
		l.LogAttrs(nil, slog.LevelWarn, "reconfig", attrs...)
		return
	}
	l.LogAttrs(nil, slog.LevelInfo, "reconfig", attrs...)
}

// Format renders the span as indented text for the /traces endpoint.
func (s *Span) Format(b *strings.Builder) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(b, "trace %d span %d", s.TraceID, s.ID)
	if s.ParentID != 0 {
		fmt.Fprintf(b, " parent %d", s.ParentID)
	}
	fmt.Fprintf(b, " op=%s target=%q duration=%s", s.Op, s.Target, s.duration)
	if s.err != "" {
		fmt.Fprintf(b, " err=%q", s.err)
	}
	b.WriteByte('\n')
	for _, e := range s.events {
		fmt.Fprintf(b, "  +%-12s %s", e.At, e.Msg)
		if len(e.Attr) > 0 {
			keys := make([]string, 0, len(e.Attr))
			for k := range e.Attr {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(b, " %s=%s", k, e.Attr[k])
			}
		}
		b.WriteByte('\n')
	}
	if s.dropped > 0 {
		fmt.Fprintf(b, "  ... %d events dropped (span cap %d)\n", s.dropped, maxSpanEvents)
	}
}
