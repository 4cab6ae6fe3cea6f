package workload

import (
	"math"
	"testing"

	"pleroma/internal/space"
)

func schema(t *testing.T, n int) *space.Schema {
	t.Helper()
	s, err := space.UniformSchema(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	sch := schema(t, 2)
	if _, err := New(nil, Uniform, 1); err == nil {
		t.Error("nil schema must fail")
	}
	if _, err := New(sch, Model(99), 1); err == nil {
		t.Error("unknown model must fail")
	}
}

func TestModelString(t *testing.T) {
	if Uniform.String() != "uniform" || Zipfian.String() != "zipfian" {
		t.Error("model strings wrong")
	}
	if Model(0).String() != "unknown" {
		t.Error("zero model must be unknown")
	}
}

func TestDeterminism(t *testing.T) {
	sch := schema(t, 3)
	g1, err := New(sch, Zipfian, 42)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(sch, Zipfian, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		e1, e2 := g1.Event(), g2.Event()
		for d := range e1.Values {
			if e1.Values[d] != e2.Values[d] {
				t.Fatal("same seed must yield same events")
			}
		}
	}
	r1, r2 := g1.SubscriptionRect(), g2.SubscriptionRect()
	for d := range r1 {
		if r1[d] != r2[d] {
			t.Fatal("same seed must yield same subscriptions")
		}
	}
}

func TestUniformEventsInDomain(t *testing.T) {
	sch := schema(t, 4)
	g, err := New(sch, Uniform, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range g.Events(500) {
		if len(ev.Values) != 4 {
			t.Fatal("dims wrong")
		}
		for _, v := range ev.Values {
			if v > sch.DomainMax() {
				t.Fatalf("value %d out of domain", v)
			}
		}
	}
}

func TestSubscriptionRectsValid(t *testing.T) {
	sch := schema(t, 3)
	for _, model := range []Model{Uniform, Zipfian} {
		g, err := New(sch, model, 11)
		if err != nil {
			t.Fatal(err)
		}
		for _, rect := range g.SubscriptionRects(300) {
			if err := sch.Geometry().Validate(rect); err != nil {
				t.Fatalf("%v: invalid rect %v: %v", model, rect, err)
			}
		}
	}
}

func TestZipfianClustersAroundHotspots(t *testing.T) {
	sch := schema(t, 2)
	g, err := New(sch, Zipfian, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.hotspots) != DefaultHotspots {
		t.Fatalf("%d hotspots, want %d", len(g.hotspots), DefaultHotspots)
	}
	// Most events must lie close to some hotspot (within 4σ of spread).
	domain := float64(sch.DomainMax()) + 1
	maxDist := 4 * DefaultSpread * domain
	events := g.Events(1000)
	far := 0
	for _, ev := range events {
		near := false
		for i := 0; i < DefaultHotspots; i++ {
			h := g.hotspots[i]
			d := 0.0
			for dim := range ev.Values {
				diff := float64(ev.Values[dim]) - float64(h[dim])
				d += diff * diff
			}
			if math.Sqrt(d) <= maxDist*math.Sqrt(float64(sch.Dims())) {
				near = true
				break
			}
		}
		if !near {
			far++
		}
	}
	if frac := float64(far) / float64(len(events)); frac > 0.05 {
		t.Errorf("%.1f%% of zipfian events far from all hotspots", frac*100)
	}
}

func TestZipfianSkewedPopularity(t *testing.T) {
	// The most popular hotspot must attract clearly more events than the
	// average — by counting nearest hotspots.
	sch := schema(t, 2)
	g, err := New(sch, Zipfian, 9)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, DefaultHotspots)
	for _, ev := range g.Events(2000) {
		best, bestD := 0, math.MaxFloat64
		for i := 0; i < DefaultHotspots; i++ {
			h := g.hotspots[i]
			d := 0.0
			for dim := range ev.Values {
				diff := float64(ev.Values[dim]) - float64(h[dim])
				d += diff * diff
			}
			if d < bestD {
				best, bestD = i, d
			}
		}
		counts[best]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 2000/DefaultHotspots*2 {
		t.Errorf("zipfian popularity too flat: %v", counts)
	}
}

func TestUniformSpreadsOverDomain(t *testing.T) {
	sch := schema(t, 1)
	g, err := New(sch, Uniform, 13)
	if err != nil {
		t.Fatal(err)
	}
	buckets := make([]int, 4)
	for _, ev := range g.Events(2000) {
		buckets[ev.Values[0]/256]++
	}
	for i, c := range buckets {
		if c < 300 || c > 700 {
			t.Errorf("bucket %d has %d events, expected ~500", i, c)
		}
	}
}

func TestRestrictedDims(t *testing.T) {
	sch := schema(t, 3)
	g, err := New(sch, Zipfian, 21, WithRestrictedDims(map[int]float64{1: 0.05}))
	if err != nil {
		t.Fatal(err)
	}
	domain := float64(sch.DomainMax()) + 1
	lo := uint32(domain/2 - 0.05*domain)
	hi := uint32(domain/2 + 0.05*domain)
	for _, ev := range g.Events(500) {
		if ev.Values[1] < lo || ev.Values[1] > hi {
			t.Fatalf("restricted dim value %d outside band [%d,%d]", ev.Values[1], lo, hi)
		}
	}
}

// TestRestrictedDimsDeterministic: with several restricted dimensions a seed
// still fixes every event — the band draws go to the dimensions in one
// order, not in the map's randomised iteration order.
func TestRestrictedDimsDeterministic(t *testing.T) {
	sch := schema(t, 6)
	bands := map[int]float64{0: 0.01, 2: 0.1, 3: 0.3, 5: 0.6}
	g1, err := New(sch, Zipfian, 42, WithRestrictedDims(bands))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(sch, Zipfian, 42, WithRestrictedDims(bands))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		e1, e2 := g1.Event(), g2.Event()
		for d := range e1.Values {
			if e1.Values[d] != e2.Values[d] {
				t.Fatalf("event %d: %v and %v from one seed", i, e1.Values, e2.Values)
			}
		}
	}
}

func TestSubscriptionWidthBounds(t *testing.T) {
	sch := schema(t, 2)
	g, err := New(sch, Uniform, 31)
	if err != nil {
		t.Fatal(err)
	}
	domain := float64(sch.DomainMax()) + 1
	for _, rect := range g.SubscriptionRects(200) {
		for _, iv := range rect {
			w := float64(iv.Hi-iv.Lo) + 1
			// A range is drawn at most DefaultSubWidthMax wide, and rounding
			// its two ends adds less than two values. Clamping at domain
			// edges can shrink it, so only the upper bound is strict.
			if w > DefaultSubWidthMax*domain+2 {
				t.Fatalf("range width %v exceeds bound", w)
			}
		}
	}
}
