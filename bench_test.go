package pleroma_test

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"pleroma"
	"pleroma/internal/experiments"
	"pleroma/internal/metrics"
)

// The benchmarks below regenerate every figure of the paper's evaluation
// (Section 6, Figure 7 panels a–h) plus the DESIGN.md ablations, one bench
// per figure. Each iteration executes the full (quick-mode) experiment;
// headline numbers are attached as custom benchmark metrics so the shape
// of the paper's results is visible straight from `go test -bench`.
// Full-scale parameter sweeps: `go run ./cmd/pleroma-sim -exp all -full`.

// runExperiment executes one registered experiment per iteration and
// returns the final tables for metric extraction.
func runExperiment(b *testing.B, id string) []*metrics.Table {
	b.Helper()
	var tables []*metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiments.Run(id, experiments.DefaultConfig)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

func cellFloat(b *testing.B, t *metrics.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		d, derr := time.ParseDuration(t.Rows[row][col])
		if derr != nil {
			b.Fatalf("cell (%d,%d)=%q: %v / %v", row, col, t.Rows[row][col], err, derr)
		}
		return float64(d.Nanoseconds())
	}
	return v
}

func BenchmarkFig7aDelayVsFlows(b *testing.B) {
	tables := runExperiment(b, "fig7a")
	t := tables[0]
	b.ReportMetric(cellFloat(b, t, 0, 1), "delay-min-flows-ns")
	b.ReportMetric(cellFloat(b, t, len(t.Rows)-1, 1), "delay-max-flows-ns")
}

func BenchmarkFig7bDelayVsSubscriptions(b *testing.B) {
	tables := runExperiment(b, "fig7b")
	t := tables[0]
	b.ReportMetric(cellFloat(b, t, 0, 1), "delay-min-subs-ns")
	b.ReportMetric(cellFloat(b, t, len(t.Rows)-1, 1), "delay-max-subs-ns")
}

func BenchmarkFig7cThroughput(b *testing.B) {
	tables := runExperiment(b, "fig7c")
	t := tables[0]
	last := len(t.Rows) - 1
	b.ReportMetric(cellFloat(b, t, last, 1), "received-at-max-rate/s")
	b.ReportMetric(cellFloat(b, t, last, 2), "received-fast-host/s")
}

func BenchmarkFig7dFPRVsDzLength(b *testing.B) {
	tables := runExperiment(b, "fig7d")
	t := tables[0]
	b.ReportMetric(cellFloat(b, t, 0, 1), "fpr-shortest-dz-%")
	b.ReportMetric(cellFloat(b, t, len(t.Rows)-1, 1), "fpr-longest-dz-%")
}

func BenchmarkFig7eFPRDimSelection(b *testing.B) {
	tables := runExperiment(b, "fig7e")
	t := tables[0]
	// Restricted workload 3: best k vs all dimensions.
	col := len(t.Columns) - 1
	best := cellFloat(b, t, 0, col)
	for r := 1; r < len(t.Rows); r++ {
		if v := cellFloat(b, t, r, col); v < best {
			best = v
		}
	}
	b.ReportMetric(best, "fpr-best-k-%")
	b.ReportMetric(cellFloat(b, t, len(t.Rows)-1, col), "fpr-all-dims-%")
}

func BenchmarkFig7fReconfigDelay(b *testing.B) {
	tables := runExperiment(b, "fig7f")
	t := tables[0]
	last := len(t.Rows) - 1
	b.ReportMetric(cellFloat(b, t, last, 5), "subs/sec-at-max-deployed")
	b.ReportMetric(cellFloat(b, t, last, 4), "flowmods/sub")
}

func BenchmarkFig7gControllerOverhead(b *testing.B) {
	tables := runExperiment(b, "fig7g")
	t := tables[0]
	last := len(t.Rows) - 1
	b.ReportMetric(cellFloat(b, t, last, len(t.Columns)-1), "norm-overhead-max-partitions-%")
}

func BenchmarkFig7hControlTraffic(b *testing.B) {
	tables := runExperiment(b, "fig7h")
	t := tables[0]
	last := len(t.Rows) - 1
	b.ReportMetric(cellFloat(b, t, 0, 1), "traffic-1-controller")
	b.ReportMetric(cellFloat(b, t, last, 1), "traffic-max-controllers")
}

func BenchmarkAblationBrokerVsSDN(b *testing.B) {
	tables := runExperiment(b, "abl-broker")
	t := tables[0]
	b.ReportMetric(cellFloat(b, t, 0, 1), "pleroma-delay-ns")
	b.ReportMetric(cellFloat(b, t, 1, 1), "broker-delay-ns")
}

func BenchmarkAblationTreeStrategy(b *testing.B) {
	tables := runExperiment(b, "abl-trees")
	t := tables[0]
	b.ReportMetric(cellFloat(b, t, 0, 2), "single-tree-max-link-pkts")
	b.ReportMetric(cellFloat(b, t, 1, 2), "multi-tree-max-link-pkts")
}

func BenchmarkAblationCoveringForwarding(b *testing.B) {
	tables := runExperiment(b, "abl-cover")
	t := tables[0]
	b.ReportMetric(cellFloat(b, t, 0, 1), "messages-covering-on")
	b.ReportMetric(cellFloat(b, t, 1, 1), "messages-covering-off")
}

// --- end-to-end micro-benchmarks of the public API ---

func BenchmarkSystemSubscribe(b *testing.B) {
	sch, err := pleroma.NewSchema(
		pleroma.Attribute{Name: "a", Bits: 10},
		pleroma.Attribute{Name: "b", Bits: 10},
	)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := pleroma.NewSystem(sch)
	if err != nil {
		b.Fatal(err)
	}
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		b.Fatal(err)
	}
	if err := pub.Advertise(pleroma.NewFilter()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := "s" + strconv.Itoa(i)
		lo := uint32(i % 900)
		if err := sys.Subscribe(id, hosts[1+i%7],
			pleroma.NewFilter().Range("a", lo, lo+100), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSystemPublishDeliver(b *testing.B) {
	benchPublishDeliver(b)
}

// BenchmarkSystemPublishDeliverObs is the same workload with the
// observability layer enabled; the delta against the plain benchmark is
// the hot-path instrumentation overhead. Both read 1 alloc/op.
func BenchmarkSystemPublishDeliverObs(b *testing.B) {
	benchPublishDeliver(b, pleroma.WithObservability(0))
}

func benchPublishDeliver(b *testing.B, opts ...pleroma.Option) {
	sch, err := pleroma.NewSchema(
		pleroma.Attribute{Name: "a", Bits: 10},
		pleroma.Attribute{Name: "b", Bits: 10},
	)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := pleroma.NewSystem(sch, opts...)
	if err != nil {
		b.Fatal(err)
	}
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		b.Fatal(err)
	}
	if err := pub.Advertise(pleroma.NewFilter()); err != nil {
		b.Fatal(err)
	}
	delivered := 0
	for i := 1; i < 8; i++ {
		if err := sys.Subscribe("s"+strconv.Itoa(i), hosts[i],
			pleroma.NewFilter(), func(pleroma.Delivery) { delivered++ }); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish(uint32(i%1024), uint32((i*7)%1024)); err != nil {
			b.Fatal(err)
		}
		sys.Run()
	}
	if delivered == 0 {
		b.Fatal("no deliveries")
	}
}

// BenchmarkSystemPublishDeliverFatTree8 is the parallel-engine speedup
// benchmark: a k=8-style fat-tree (40 switches, 32 hosts, all of them
// subscribed) with 8 publishers bursting batches into a full fan-out. The
// shard count tracks GOMAXPROCS, so sweeping `-cpu 1,2,4,8` sweeps the
// engine from the classic single-shard path (-cpu 1) to 8-way parallel
// windows; ns/op at -cpu 1 over ns/op at -cpu N is the speedup
// (`make bench-parallel` records the sweep in benchmarks/parallel.txt).
func BenchmarkSystemPublishDeliverFatTree8(b *testing.B) {
	sch, err := pleroma.NewSchema(
		pleroma.Attribute{Name: "a", Bits: 10},
		pleroma.Attribute{Name: "b", Bits: 10},
	)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := pleroma.NewSystem(sch,
		pleroma.WithFatTree(8, 8, 2),
		pleroma.WithShards(runtime.GOMAXPROCS(0)))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	hosts := sys.Hosts()
	var delivered atomic.Uint64 // handlers run on shard workers
	for i, h := range hosts {
		if err := sys.Subscribe("s"+strconv.Itoa(i), h,
			pleroma.NewFilter(), func(pleroma.Delivery) { delivered.Add(1) }); err != nil {
			b.Fatal(err)
		}
	}
	const numPubs = 8
	const batch = 16
	var pubs []*pleroma.Publisher
	for i := 0; i < numPubs; i++ {
		// Spread publishers across pods so bursts traverse the core.
		pub, err := sys.NewPublisher("p"+strconv.Itoa(i), hosts[(i*5)%len(hosts)])
		if err != nil {
			b.Fatal(err)
		}
		if err := pub.Advertise(pleroma.NewFilter()); err != nil {
			b.Fatal(err)
		}
		pubs = append(pubs, pub)
	}
	tuples := make([][]uint32, batch)
	for j := range tuples {
		tuples[j] = []uint32{uint32(j * 61 % 1024), uint32(j * 97 % 1024)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pub := range pubs {
			if err := pub.PublishBatch(tuples...); err != nil {
				b.Fatal(err)
			}
		}
		sys.Run()
	}
	b.StopTimer()
	if delivered.Load() == 0 {
		b.Fatal("no deliveries")
	}
	b.ReportMetric(float64(numPubs*batch), "events/op")
	b.ReportMetric(float64(delivered.Load())/float64(b.N), "deliveries/op")
}

// BenchmarkSystemPublishDeliverFanout is the inproc-fanout workload of
// cmd/pleroma-bench in-process (the Fig. 7b regime): WithFatTree(4,4,2),
// L_dz 24, 16 subspaces, four publishers advertising the whole space on
// hosts 0–3 and 12×512 seeded 64×64 rectangles on hosts 4–15. One iteration
// is one PublishBatch of 16 events from the next publisher in turn, then
// Run; switch lookups and host demultiplexing do the filtering. It reports
// events/s and deliveries per event, so a data-path change can be sized in
// seconds with alternating -count runs before the 10 s workload confirms it.
func BenchmarkSystemPublishDeliverFanout(b *testing.B) {
	const (
		numPubs     = 4
		subHosts    = 12
		subsPerHost = 512
		batch       = 16
		side        = 64
		domain      = 1024
	)
	sch, err := pleroma.NewSchema(
		pleroma.Attribute{Name: "a", Bits: 10},
		pleroma.Attribute{Name: "b", Bits: 10},
	)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := pleroma.NewSystem(sch, pleroma.WithFatTree(4, 4, 2),
		pleroma.WithMaxDzLen(24), pleroma.WithMaxSubspaces(16))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	hosts := sys.Hosts()
	pubs := make([]*pleroma.Publisher, numPubs)
	for i := range pubs {
		if pubs[i], err = sys.NewPublisher("p"+strconv.Itoa(i), hosts[i]); err != nil {
			b.Fatal(err)
		}
		if err := pubs[i].Advertise(pleroma.NewFilter()); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(12))
	delivered := 0
	for i := 0; i < subHosts*subsPerHost; i++ {
		a, c := uint32(rng.Intn(domain-side+1)), uint32(rng.Intn(domain-side+1))
		f := pleroma.NewFilter().Range("a", a, a+side-1).Range("b", c, c+side-1)
		if err := sys.Subscribe("s"+strconv.Itoa(i), hosts[numPubs+i%subHosts], f,
			func(pleroma.Delivery) { delivered++ }); err != nil {
			b.Fatal(err)
		}
	}
	const ring = 1 << 12 // events, a multiple of batch
	flat := make([]uint32, 2*ring)
	for i := range flat {
		flat[i] = uint32(rng.Intn(domain))
	}
	events := make([][]uint32, ring)
	for i := range events {
		events[i] = flat[2*i : 2*i+2 : 2*i+2]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i * batch % ring
		if err := pubs[i%numPubs].PublishBatch(events[at : at+batch]...); err != nil {
			b.Fatal(err)
		}
		sys.Run()
	}
	b.StopTimer()
	if delivered == 0 {
		b.Fatal("no deliveries")
	}
	evs := float64(b.N * batch)
	b.ReportMetric(evs/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(delivered)/evs, "deliveries/event")
}

// BenchmarkSystemPublishBatch is the batched-ingestion counterpart of
// BenchmarkSystemPublishDeliver: same fanout workload, events injected 16
// per PublishBatch call. ns/op and allocs/op are per event.
func BenchmarkSystemPublishBatch(b *testing.B) {
	sch, err := pleroma.NewSchema(
		pleroma.Attribute{Name: "a", Bits: 10},
		pleroma.Attribute{Name: "b", Bits: 10},
	)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := pleroma.NewSystem(sch)
	if err != nil {
		b.Fatal(err)
	}
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		b.Fatal(err)
	}
	if err := pub.Advertise(pleroma.NewFilter()); err != nil {
		b.Fatal(err)
	}
	delivered := 0
	for i := 1; i < 8; i++ {
		if err := sys.Subscribe("s"+strconv.Itoa(i), hosts[i],
			pleroma.NewFilter(), func(pleroma.Delivery) { delivered++ }); err != nil {
			b.Fatal(err)
		}
	}
	const batch = 16
	pool := make([][][]uint32, 64)
	for i := range pool {
		pool[i] = make([][]uint32, batch)
		for j := range pool[i] {
			k := i*batch + j
			pool[i][j] = []uint32{uint32(k % 1024), uint32((k * 7) % 1024)}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		if err := pub.PublishBatch(pool[(i/batch)%len(pool)]...); err != nil {
			b.Fatal(err)
		}
		sys.Run()
	}
	if delivered == 0 {
		b.Fatal("no deliveries")
	}
}

// BenchmarkHostDemux is the host half of Fig. 7b ("delay vs.
// subscriptions"): one publisher, one receiving host on the same edge
// switch holding n subscriptions, one packet per iteration — publish, one
// switch hop, the host's dz index, the handlers. The rectangles shrink as n
// grows so each event matches about the same handful of them
// (deliveries/op); what is left to vary with n is the demux itself. ns/op
// is per packet: about 2× from 64 to 4096 subscriptions, which is the
// working set leaving the cache, where the linear scan this index replaced
// grew 100-fold (2.7 µs → 281 µs).
func BenchmarkHostDemux(b *testing.B) {
	for _, n := range []int{1, 64, 512, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			sch, err := pleroma.NewSchema(
				pleroma.Attribute{Name: "a", Bits: 10},
				pleroma.Attribute{Name: "b", Bits: 10},
			)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := pleroma.NewSystem(sch)
			if err != nil {
				b.Fatal(err)
			}
			hosts := sys.Hosts()
			pub, err := sys.NewPublisher("p", hosts[0])
			if err != nil {
				b.Fatal(err)
			}
			if err := pub.Advertise(pleroma.NewFilter()); err != nil {
				b.Fatal(err)
			}
			// Squares of side ≈ 2·1024/√n: about four cover any point.
			side := uint32(1023)
			for side*side*uint32(n) > 4<<20 {
				side--
			}
			delivered := 0
			r := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < n; i++ {
				lo, vlo := uint32(r.Intn(int(1024-side))), uint32(r.Intn(int(1024-side)))
				if err := sys.Subscribe("s"+strconv.Itoa(i), hosts[1],
					pleroma.NewFilter().Range("a", lo, lo+side).Range("b", vlo, vlo+side),
					func(pleroma.Delivery) { delivered++ }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pub.Publish(uint32(i*131%1024), uint32(i*71%1024)); err != nil {
					b.Fatal(err)
				}
				sys.Run()
			}
			b.ReportMetric(float64(delivered)/float64(b.N), "deliveries/op")
		})
	}
}

func BenchmarkAblationMergeThreshold(b *testing.B) {
	tables := runExperiment(b, "abl-merge")
	t := tables[0]
	b.ReportMetric(cellFloat(b, t, 0, 3), "flow-ops-single-tree")
	b.ReportMetric(cellFloat(b, t, len(t.Rows)-1, 3), "flow-ops-unlimited")
}

func BenchmarkAblationFlowBudget(b *testing.B) {
	tables := runExperiment(b, "abl-flows")
	t := tables[0]
	last := len(t.Rows) - 1
	b.ReportMetric(cellFloat(b, t, 0, 2), "flows-tightest-budget")
	b.ReportMetric(cellFloat(b, t, last, 2), "flows-loosest-budget")
	b.ReportMetric(cellFloat(b, t, last, 4), "fpr-loosest-%")
}

func BenchmarkExtActivationLatency(b *testing.B) {
	tables := runExperiment(b, "ext-activation")
	t := tables[0]
	b.ReportMetric(cellFloat(b, t, len(t.Rows)-1, 1), "activation-mean-ns")
}
