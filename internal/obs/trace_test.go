package obs

import (
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestTracerRingBuffer(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		sp := tr.StartSpan("advertise", "00*")
		sp.Event("step")
		sp.End(nil)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	// oldest first: IDs 3, 4, 5
	for i, want := range []uint64{3, 4, 5} {
		if spans[i].ID != want {
			t.Fatalf("span[%d].ID = %d, want %d", i, spans[i].ID, want)
		}
	}
}

func TestTracerPartialRing(t *testing.T) {
	tr := NewTracer(8)
	tr.StartSpan("subscribe", "01*").End(nil)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Op != "subscribe" {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestSpanEventsAndFormat(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.StartSpan("publish", "1101")
	sp.Event("case", "kind", "merge", "trees", "2")
	sp.Event("programmed 3 switches")
	sp.End(nil)
	evs := sp.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Attr["kind"] != "merge" || evs[0].Attr["trees"] != "2" {
		t.Fatalf("attrs = %+v", evs[0].Attr)
	}
	var b strings.Builder
	sp.Format(&b)
	out := b.String()
	for _, want := range []string{"op=publish", `target="1101"`, "kind=merge", "programmed 3 switches"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

func TestSpanEventCapAndDoubleEnd(t *testing.T) {
	tr := NewTracer(1)
	sp := tr.StartSpan("advertise", "0*")
	for i := 0; i < maxSpanEvents+10; i++ {
		sp.Event("e")
	}
	sp.End(nil)
	sp.End(nil) // idempotent
	sp.Event("after end ignored")
	if got := len(sp.Events()); got != maxSpanEvents {
		t.Fatalf("events = %d, want cap %d", got, maxSpanEvents)
	}
	var b strings.Builder
	sp.Format(&b)
	if !strings.Contains(b.String(), "10 events dropped") {
		t.Errorf("format missing drop note:\n%s", b.String())
	}
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("double End recorded %d spans", got)
	}
}

func TestSpanErrAndSink(t *testing.T) {
	var buf strings.Builder
	tr := NewTracer(2)
	tr.SetSink(slog.New(slog.NewTextHandler(&buf, nil)))
	sp := tr.StartSpan("unsubscribe", "111*")
	sp.End(errTest("boom"))
	if sp.Err() != "boom" {
		t.Fatalf("err = %q", sp.Err())
	}
	out := buf.String()
	if !strings.Contains(out, "op=unsubscribe") || !strings.Contains(out, "err=boom") {
		t.Errorf("sink output: %s", out)
	}
	if !strings.Contains(out, "WARN") {
		t.Errorf("error span should log at warn: %s", out)
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestSpanConcurrentEvents(t *testing.T) {
	// Refresh workers annotate the same span from many goroutines.
	tr := NewTracer(2)
	sp := tr.StartSpan("advertise", "0*")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				sp.Event("program", "switch", "1")
			}
		}()
	}
	wg.Wait()
	sp.End(nil)
	if got := len(sp.Events()); got != 160 {
		t.Fatalf("events = %d, want 160", got)
	}
}
