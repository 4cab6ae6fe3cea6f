package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := NewGauge()
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *Vec[string, *Counter]
	var gv *Vec[int, *Gauge]
	var hv *Vec[string, *Histogram]
	var r *Registry
	var tr *Tracer

	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Millisecond)
	cv.With("x").Inc()
	gv.With(1).Set(1)
	gv.Delete(1)
	hv.With("x").Observe(time.Second)
	r.Attach("n", "h", NewCounter())
	_ = r.Counter("n", "h") // created but unexported
	_ = r.Snapshot()
	sp := tr.StartSpan("advertise", "dz")
	sp.Event("e", "k", "v")
	sp.End(nil)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || sp.Duration() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer spans = %v, want nil", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(time.Millisecond, 10*time.Millisecond)
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // >= bound → bucket 1
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // overflow
	s := h.snapshot()
	want := []uint64{1, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if got := h.Sum(); got != time.Second+6*time.Millisecond+500*time.Microsecond {
		t.Fatalf("sum = %s", got)
	}
}

func TestHistogramBoundsSortedDeduped(t *testing.T) {
	h := NewHistogram(time.Second, time.Millisecond, time.Second)
	if len(h.bounds) != 2 || h.bounds[0] != time.Millisecond || h.bounds[1] != time.Second {
		t.Fatalf("bounds = %v", h.bounds)
	}
}

func TestRegistryMergesSameNameAttachments(t *testing.T) {
	// Two controllers attach their own counters under one family: the
	// snapshot must show the sum, while each controller's view stays
	// per-controller.
	r := NewRegistry()
	a, b := NewCounter(), NewCounter()
	r.Attach(MSouthboundCalls, "calls", a)
	r.Attach(MSouthboundCalls, "calls", b)
	a.Add(3)
	b.Add(4)
	snap := r.Snapshot()
	if v, ok := snap.Counter(MSouthboundCalls, ""); !ok || v != 7 {
		t.Fatalf("merged counter = %v, %v; want 7, true", v, ok)
	}
	if a.Value() != 3 || b.Value() != 4 {
		t.Fatal("attachment must not mutate the instruments")
	}
}

func TestRegistryVecsAndLabelOrder(t *testing.T) {
	r := NewRegistry()
	v := NewVec[int](NewCounter)
	r.AttachVec(MSwitchFlowMods, "per-switch flowmods", "switch", v)
	v.With(10).Add(2)
	v.With(2).Inc()
	snap := r.Snapshot()
	var fam *Family
	for i := range snap.Families {
		if snap.Families[i].Name == MSwitchFlowMods {
			fam = &snap.Families[i]
		}
	}
	if fam == nil {
		t.Fatal("family missing")
	}
	if fam.Label != "switch" || len(fam.Samples) != 2 {
		t.Fatalf("fam = %+v", fam)
	}
	// numeric label values sort numerically: 2 before 10
	if fam.Samples[0].LabelValue != "2" || fam.Samples[1].LabelValue != "10" {
		t.Fatalf("label order = %q, %q", fam.Samples[0].LabelValue, fam.Samples[1].LabelValue)
	}
	if got := snap.Total(MSwitchFlowMods); got != 3 {
		t.Fatalf("total = %v, want 3", got)
	}

	gv := NewVec[int](NewGauge)
	r.AttachVec(MTreeDzSize, "dz per tree", "tree", gv)
	gv.With(1).Set(5)
	gv.Delete(1)
	if v, ok := r.Snapshot().Gauge(MTreeDzSize, "1"); ok {
		t.Fatalf("after delete: tree 1 = %v", v)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(MTreesCreated, "trees created").Add(2)
	r.Gauge(MFlowTableOccupancy, "occupancy").Set(9)
	h := r.Histogram(MReconfigDuration, "latency", time.Millisecond, time.Second)
	h.Observe(2 * time.Millisecond)
	h.Observe(2 * time.Second)
	v := NewVec[string](NewCounter)
	r.AttachVec(MSwitchRetries, "retries", "switch", v)
	v.With(`sw"1`).Inc() // label escaping

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wants := []string{
		"# HELP " + MTreesCreated + " trees created",
		"# TYPE " + MTreesCreated + " counter",
		MTreesCreated + " 2",
		"# TYPE " + MFlowTableOccupancy + " gauge",
		MFlowTableOccupancy + " 9",
		"# TYPE " + MReconfigDuration + " histogram",
		MReconfigDuration + `_bucket{le="0.001"} 0`,
		MReconfigDuration + `_bucket{le="1"} 1`,
		MReconfigDuration + `_bucket{le="+Inf"} 2`,
		MReconfigDuration + "_count 2",
		MSwitchRetries + `{switch="sw\"1"} 1`,
	}
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q\n%s", w, out)
		}
	}
	// _sum is in seconds
	if !strings.Contains(out, MReconfigDuration+"_sum 2.002") {
		t.Errorf("histogram _sum not in seconds:\n%s", out)
	}
}

func TestHistogramVecSharedBounds(t *testing.T) {
	hv := NewVec[string](func() *Histogram { return NewHistogram(time.Millisecond) })
	hv.With("a").Observe(2 * time.Millisecond)
	hv.With("b").Observe(time.Microsecond)
	r := NewRegistry()
	r.AttachVec(MReconfigDuration, "latency", "op", hv)
	snap := r.Snapshot()
	var fam *Family
	for i := range snap.Families {
		if snap.Families[i].Name == MReconfigDuration {
			fam = &snap.Families[i]
		}
	}
	if fam == nil || len(fam.Samples) != 2 {
		t.Fatalf("fam = %+v", fam)
	}
	for _, smp := range fam.Samples {
		if smp.Hist == nil || len(smp.Hist.Bounds) != 1 {
			t.Fatalf("sample %q hist = %+v", smp.LabelValue, smp.Hist)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(MDeliveries, "deliveries")
	v := NewVec[int](NewCounter)
	r.AttachVec(MSwitchFlowMods, "flowmods", "switch", v)
	h := r.Histogram(MDeliveryLatency, "latency")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				v.With(7).Inc()
				h.Observe(time.Duration(j) * time.Microsecond)
				if j%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got, _ := snap.Counter(MDeliveries, ""); got != 8000 {
		t.Fatalf("deliveries = %v, want 8000", got)
	}
	if got, _ := snap.Counter(MSwitchFlowMods, "7"); got != 8000 {
		t.Fatalf("switch flowmods = %v, want 8000", got)
	}
}

// TestVecWithAllocs pins a warm member lookup at zero allocations, for an
// integer key and for a string key.
func TestVecWithAllocs(t *testing.T) {
	byID := NewVec[int](NewCounter)
	byID.With(1234).Inc()
	if n := testing.AllocsPerRun(1000, func() { byID.With(1234).Inc() }); n != 0 {
		t.Errorf("warm With(int): %v allocs, want 0", n)
	}
	byName := NewVec[string](NewCounter)
	byName.With("subscribe").Inc()
	if n := testing.AllocsPerRun(1000, func() { byName.With("subscribe").Inc() }); n != 0 {
		t.Errorf("warm With(string): %v allocs, want 0", n)
	}
}
