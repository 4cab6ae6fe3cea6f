package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanLinking(t *testing.T) {
	tr := NewTracer(8)
	root := tr.StartSpan("publish", "p1")
	if root.TraceID == 0 {
		t.Fatal("root span without trace id")
	}
	if root.ParentID != 0 {
		t.Fatalf("root span parent = %d", root.ParentID)
	}
	child := tr.StartRemoteSpan(root.TraceID, root.ID, "deliver", "s1")
	if child.TraceID != root.TraceID {
		t.Fatalf("child trace = %d, want %d", child.TraceID, root.TraceID)
	}
	if child.ParentID != root.ID {
		t.Fatalf("child parent = %d, want %d", child.ParentID, root.ID)
	}
	child.End(nil)
	root.End(nil)
	other := tr.StartSpan("publish", "p2")
	other.End(nil)

	got := tr.SpansByTrace(root.TraceID)
	if len(got) != 2 {
		t.Fatalf("SpansByTrace returned %d spans, want 2", len(got))
	}
	for _, s := range got {
		if s.TraceID != root.TraceID {
			t.Fatalf("foreign span %+v in trace", s)
		}
	}
	if tr.SpansByTrace(0) != nil {
		t.Error("trace id 0 returned spans")
	}
	var b strings.Builder
	child.Format(&b)
	want := fmt.Sprintf("trace %d span %d parent %d", child.TraceID, child.ID, root.ID)
	if !strings.Contains(b.String(), want) {
		t.Errorf("format %q missing %q", b.String(), want)
	}
}

func TestRemoteSpanUntracedIsNoop(t *testing.T) {
	tr := NewTracer(4)
	if sp := tr.StartRemoteSpan(0, 7, "deliver", "s"); sp != nil {
		t.Fatalf("untraced remote span = %+v, want nil", sp)
	}
	var nilTracer *Tracer
	if sp := nilTracer.StartRemoteSpan(1, 2, "x", "y"); sp != nil {
		t.Fatal("nil tracer minted a span")
	}
}

func TestTracerTraceIDsDistinct(t *testing.T) {
	// Two tracers (two processes) must not mint colliding trace ids even
	// though both count spans from 1.
	a, b := NewTracer(4), NewTracer(4)
	sa, sb := a.StartSpan("publish", "x"), b.StartSpan("publish", "x")
	if sa.TraceID == sb.TraceID {
		t.Fatalf("tracers minted the same trace id %d", sa.TraceID)
	}
	if sa.ID != 1 || sb.ID != 1 {
		t.Fatalf("span ids = %d, %d, want 1, 1", sa.ID, sb.ID)
	}
}

func TestHistSnapshotQuantile(t *testing.T) {
	h := NewHistogram(10*time.Millisecond, 20*time.Millisecond, 40*time.Millisecond)
	for i := 0; i < 100; i++ {
		h.Observe(5 * time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		h.Observe(15 * time.Millisecond)
	}
	s := h.snapshot()
	if p50 := s.Quantile(0.5); p50 != 10*time.Millisecond {
		t.Errorf("p50 = %s, want 10ms", p50)
	}
	// p75 lands halfway through the (10ms, 20ms] bucket.
	if p75 := s.Quantile(0.75); p75 != 15*time.Millisecond {
		t.Errorf("p75 = %s, want 15ms", p75)
	}
	if p100 := s.Quantile(1); p100 != 20*time.Millisecond {
		t.Errorf("p100 = %s, want 20ms", p100)
	}
	var empty *HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Error("nil snapshot quantile != 0")
	}
	// Overflow samples report the last finite bound.
	h2 := NewHistogram(time.Millisecond)
	h2.Observe(time.Second)
	if q := h2.snapshot().Quantile(0.99); q != time.Millisecond {
		t.Errorf("overflow quantile = %s, want 1ms", q)
	}
}

func TestCountHistogramExposition(t *testing.T) {
	reg := NewRegistry()
	h := NewCountHistogram(1, 2, 4)
	reg.Attach("pleroma_test_hops", "Hops.", h)
	h.ObserveCount(1)
	h.ObserveCount(3)
	h.ObserveCount(9)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`pleroma_test_hops_bucket{le="1"} 0`,
		`pleroma_test_hops_bucket{le="2"} 1`,
		`pleroma_test_hops_bucket{le="4"} 2`,
		`pleroma_test_hops_bucket{le="+Inf"} 3`,
		"pleroma_test_hops_sum 13",
		"pleroma_test_hops_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSlowRingKeepsSlowest(t *testing.T) {
	r := NewSlowRing(3)
	for i := 1; i <= 10; i++ {
		r.Offer(DeliverySample{SubscriptionID: "s", Latency: time.Duration(i) * time.Millisecond})
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	for i, want := range []time.Duration{10, 9, 8} {
		if got[i].Latency != want*time.Millisecond {
			t.Fatalf("slowest[%d] = %s, want %dms", i, got[i].Latency, want)
		}
	}
	// A fast sample against a full ring is rejected on the atomic gate.
	r.Offer(DeliverySample{Latency: time.Microsecond})
	if got := r.Snapshot(); got[2].Latency != 8*time.Millisecond {
		t.Fatalf("fast sample displaced the tail: %+v", got)
	}
	var nilRing *SlowRing
	nilRing.Offer(DeliverySample{})
	if nilRing.Snapshot() != nil {
		t.Error("nil ring snapshot != nil")
	}
}

func TestSlowRingConcurrent(t *testing.T) {
	r := NewSlowRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Offer(DeliverySample{Latency: time.Duration(g*1000 + i)})
			}
		}(g)
	}
	wg.Wait()
	got := r.Snapshot()
	if len(got) != 8 {
		t.Fatalf("retained %d, want 8", len(got))
	}
	// The 8 slowest offered latencies are 3992..3999.
	for _, s := range got {
		if s.Latency < 3992 {
			t.Fatalf("retained non-tail sample %d", s.Latency)
		}
	}
}

func TestDeliveryLatencyRecord(t *testing.T) {
	reg := NewRegistry()
	l := NewDeliveryLatency(4)
	l.Attach(reg)
	l.Record(DeliverySample{
		SubscriptionID: "s1", Tree: 1, Partition: 0,
		Latency: 200 * time.Microsecond, WallLatency: time.Millisecond, Hops: 4,
	})
	l.Record(DeliverySample{
		SubscriptionID: "s2", Tree: 1, Partition: 2,
		Latency: 300 * time.Microsecond, Hops: 2,
	})
	l.Record(DeliverySample{SubscriptionID: "s3", Tree: -1, Partition: -1, Latency: time.Microsecond})

	snap := reg.Snapshot()
	trees := snap.Histograms(MDeliveryLatencyByTree)
	if trees["1"] == nil || trees["1"].Count != 2 {
		t.Fatalf("tree snapshots = %+v", trees)
	}
	parts := snap.Histograms(MDeliveryLatencyByPartition)
	if parts["0"] == nil || parts["0"].Count != 1 || parts["2"] == nil {
		t.Fatalf("partition snapshots = %+v", parts)
	}
	if hops := snap.Histograms(MDeliveryHops)[""]; hops.Count != 3 {
		t.Fatalf("hops count = %d", hops.Count)
	}
	if wall := snap.Histograms(MDeliveryWallLatency)[""]; wall.Count != 1 {
		t.Fatalf("wall count = %d", wall.Count)
	}
	if got := l.Slowest(); len(got) != 3 || got[0].SubscriptionID != "s2" {
		t.Fatalf("slowest = %+v", got)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{MDeliveryLatencyByTree, MDeliveryLatencyByPartition, MDeliveryHops, MDeliveryWallLatency} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	var nilFam *DeliveryLatency
	nilFam.Record(DeliverySample{})
	nilFam.Attach(reg)
	if nilFam.Slowest() != nil {
		t.Error("nil family leaked state")
	}
}

// TestDeliveryLatencyRecordAllocs pins the per-delivery cost: once a
// sample's tree and partition have been seen, Record allocates nothing.
func TestDeliveryLatencyRecordAllocs(t *testing.T) {
	l := NewDeliveryLatency(4)
	l.Attach(NewRegistry())
	s := DeliverySample{SubscriptionID: "s", Tree: 12, Partition: 3, Latency: time.Microsecond,
		WallLatency: time.Millisecond, Hops: 4}
	l.Record(s)
	if n := testing.AllocsPerRun(1000, func() { l.Record(s) }); n != 0 {
		t.Fatalf("Record with warm ids: %v allocs, want 0", n)
	}
}
