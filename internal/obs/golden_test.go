package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// goldenExposition is the WritePrometheus output of goldenRegistry. A
// change to it is a change to every scraper's input, so it is only ever
// edited by hand, from the output the failing test prints.
var goldenExposition = filepath.Join("testdata", "exposition.golden")

// goldenRegistry holds every shape the exposition renders: an unlabelled
// counter (two attachments merged under one name), gauge, duration
// histogram and count histogram; a string-keyed vec carrying a label value
// that needs every escape; an integer-keyed vec of twelve members, so ids
// 10 and 11 sort after 2; two integer-keyed vecs merged under one name with
// overlapping keys; and a histogram vec.
func goldenRegistry() *Registry {
	reg := NewRegistry()

	a, b := NewCounter(), NewCounter()
	a.Add(3)
	b.Add(4)
	reg.Attach(MDeliveries, "Deliveries.", a)
	reg.Attach(MDeliveries, "Deliveries.", b)

	g := NewGauge()
	g.Set(-4)
	reg.Attach(MSnapshotBytes, "Snapshot bytes.", g)

	h := NewHistogram(time.Millisecond, 10*time.Millisecond)
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	reg.Attach(MDeliveryLatency, "Latency.", h)

	hops := NewCountHistogram(1, 2, 4)
	hops.ObserveCount(3)
	hops.ObserveCount(9)
	reg.Attach(MDeliveryHops, "Hops.", hops)

	ops := NewVec[string](NewCounter)
	ops.With("subscribe").Add(2)
	ops.With("quote\" back\\slash\nnewline").Inc()
	reg.AttachVec(MRequests, "Requests.", "op", ops)

	occ := NewVec[int](NewGauge)
	for sw := 0; sw < 12; sw++ {
		occ.With(sw).Set(int64(3 * sw))
	}
	reg.AttachVec(MFlowTableOccupancy, "Flows per switch.", "switch", occ)

	p1, p2 := NewVec[int](NewCounter), NewVec[int](NewCounter)
	p1.With(1).Add(5)
	p1.With(10).Inc()
	p2.With(10).Add(2)
	p2.With(2).Inc()
	reg.AttachVec(MFailovers, "Failovers.", "partition", p1)
	reg.AttachVec(MFailovers, "Failovers.", "partition", p2)

	byTree := NewVec[int64](func() *Histogram { return NewHistogram(time.Millisecond) })
	byTree.With(12).Observe(2 * time.Millisecond)
	byTree.With(3).Observe(time.Microsecond)
	reg.AttachVec(MDeliveryLatencyByTree, "Latency by tree.", "tree", byTree)
	return reg
}

// TestExpositionGolden pins the /metrics bytes of every metric shape.
func TestExpositionGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	lintExposition(t, got)
	want, err := os.ReadFile(goldenExposition)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from %s:\n--- got\n%s--- want\n%s", goldenExposition, got, want)
	}
}
