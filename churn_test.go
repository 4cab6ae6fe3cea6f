package pleroma_test

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"pleroma"
)

// controlChurn is the ctl-churn loop of cmd/pleroma-bench driven in-process:
// the benchmark's deployment (WithFatTree(4,4,2), L_dz 24, 16 subspaces,
// journaled), four publishers advertising everything, `deployed` 64×64
// subscriptions on the other twelve hosts; every step unsubscribes the
// oldest and subscribes a new one.
type controlChurn struct {
	sys    *pleroma.System
	rng    *rand.Rand
	live   []string
	head   int
	nextID int
}

func newControlChurn(tb testing.TB, deployed int) *controlChurn {
	tb.Helper()
	sch, err := pleroma.NewSchema(
		pleroma.Attribute{Name: "a", Bits: 10},
		pleroma.Attribute{Name: "b", Bits: 10},
	)
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := pleroma.NewSystem(sch, pleroma.WithFatTree(4, 4, 2),
		pleroma.WithMaxDzLen(24), pleroma.WithMaxSubspaces(16), pleroma.WithJournal())
	if err != nil {
		tb.Fatal(err)
	}
	w := &controlChurn{sys: sys, rng: rand.New(rand.NewSource(12)), live: make([]string, deployed)}
	tb.Cleanup(w.close)
	for i := 0; i < 4; i++ {
		pub, err := sys.NewPublisher("p"+strconv.Itoa(i), sys.Hosts()[i])
		if err != nil {
			tb.Fatal(err)
		}
		if err := pub.Advertise(pleroma.NewFilter()); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range w.live {
		w.live[i] = w.subscribe(tb)
	}
	return w
}

// close closes the system and lets go of it: the testing package may keep
// a cleanup reachable after running it, and with it whatever it holds.
func (w *controlChurn) close() {
	w.sys.Close()
	w.sys, w.live = nil, nil
}

func (w *controlChurn) subscribe(tb testing.TB) string {
	id := "s" + strconv.Itoa(w.nextID)
	w.nextID++
	host := w.sys.Hosts()[4+w.rng.Intn(12)]
	a, b := uint32(w.rng.Intn(1024-63)), uint32(w.rng.Intn(1024-63))
	f := pleroma.NewFilter().Range("a", a, a+63).Range("b", b, b+63)
	if err := w.sys.Subscribe(id, host, f, func(pleroma.Delivery) {}); err != nil {
		tb.Fatal(err)
	}
	return id
}

// liveHeap is HeapAlloc after a GC.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func (w *controlChurn) step(tb testing.TB) {
	if err := w.sys.Unsubscribe(w.live[w.head]); err != nil {
		tb.Fatal(err)
	}
	w.live[w.head] = w.subscribe(tb)
	w.head = (w.head + 1) % len(w.live)
}

// BenchmarkControlChurn: one unsubscribe + subscribe pair per iteration with
// 500, 5000 and 20000 subscriptions deployed. A control operation touches
// the prefix families of its own dz-expressions and no registry is scanned,
// so ns/op may grow with the depth of the per-switch tries and the cache
// footprint of the deployment, not with the deployment itself (DESIGN.md,
// "Flow derivation", has the measured growth). live-B/sub is what the
// deployment adds to the live heap (HeapAlloc after a GC, before its set-up
// and after the loop: the system, its journal included, which grows by a
// record per operation) per deployed subscription, the in-process side of
// ctl-churn's heap_live_mb.
func BenchmarkControlChurn(b *testing.B) {
	for _, deployed := range []int{500, 5000, 20000} {
		b.Run("deployed="+strconv.Itoa(deployed), func(b *testing.B) {
			before := liveHeap()
			w := newControlChurn(b, deployed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.step(b)
			}
			b.StopTimer()
			b.ReportMetric((float64(liveHeap())-float64(before))/float64(deployed), "live-B/sub")
			if err := w.sys.VerifyTables(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestControlChurnAllocCeiling pins the allocations of one unsubscribe +
// subscribe pair at 5000 deployed, facade to flow tables, journal included
// (the map-of-maps contribution state this replaced took ≈ 560). What is
// left is the state the new subscription keeps — its record, tree list and
// set, its branch (the expression list, and one list for the routes of all
// publishers but the first) — plus the filter's decomposition and the host
// list the loop asks for; journal records are packed into chunks.
// Contributions are values in the per-switch tries; a flow is a value in its
// table's slab, its match the packed key and its actions the switch's
// interned list for its port set, and the fabric keeps the registered set
// without a copy. Change sets, the changed list, tree ids, batch FlowIDs and
// path expressions are controller scratch or sized once (DESIGN.md §5, "What
// a control operation allocates").
func TestControlChurnAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys 5000 subscriptions")
	}
	const ceiling = 13 // measured 11 with flows as slab values keyed by the packed key and the fabric keeping the registered set, 13 with the flow table's values alone, 19 the ceiling then; 17 with one branch per (subscription, tree) and journal records packed into chunks; 21 with a path record per publisher and a heap slice per journal record, 23 the ceiling then; 28 with a fresh action list per flow add (3.9) and modify (1.1), a FlowID slice per batch (1.6) and a map of trees per subscriber, 30 the ceiling then; 45 with a heap contrib per (switch, expression), two allocations per path record, a copied action list per flow add and journal records sized one byte short, 86 with a change set per operation and path expressions grown per member, 364 before the decomposition, the routes and the refresh scratch stopped allocating per operation
	w := newControlChurn(t, 5000)
	perPair := testing.AllocsPerRun(300, func() { w.step(t) })
	t.Logf("%.0f allocations per unsubscribe+subscribe pair at 5000 deployed", perPair)
	if perPair > ceiling {
		t.Errorf("%.0f allocations per unsubscribe+subscribe pair, ceiling %d", perPair, ceiling)
	}
	if err := w.sys.VerifyTables(); err != nil {
		t.Fatal(err)
	}
}

// TestSystemSetupAllocs pins the allocations of standing up the
// benchmark's deployment — the system, one whole-space advertisement, one
// whole-space subscription — and closing it: the set-up every workload pays
// before its measured window, the topology included. The controller makes
// no per-switch map or trie before the switch's first contribution, so the
// switches the subscription's paths miss cost nothing here.
func TestSystemSetupAllocs(t *testing.T) {
	const ceiling = 1010 // measured 1000 with each flow keeping its own action list and no per-table interning map; 1016 with flow tables that allocate nothing before their first flow, 1030 the ceiling then; 1040 with one flat map of interned action lists (a map per switch read 1056 in a prototype); 1044 with a list per flow, 1055 with the controller's state keyed by expression strings
	sch, err := pleroma.NewSchema(
		pleroma.Attribute{Name: "a", Bits: 10},
		pleroma.Attribute{Name: "b", Bits: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	setup := func() {
		sys, err := pleroma.NewSystem(sch, pleroma.WithFatTree(4, 4, 2),
			pleroma.WithMaxDzLen(24), pleroma.WithMaxSubspaces(16))
		if err != nil {
			t.Fatal(err)
		}
		hosts := sys.Hosts()
		pub, err := sys.NewPublisher("p", hosts[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Advertise(pleroma.NewFilter()); err != nil {
			t.Fatal(err)
		}
		if err := sys.Subscribe("s", hosts[len(hosts)-1], pleroma.NewFilter(), func(pleroma.Delivery) {}); err != nil {
			t.Fatal(err)
		}
		sys.Close()
	}
	n := testing.AllocsPerRun(20, setup)
	t.Logf("%.0f allocations to set up and close the benchmark deployment", n)
	if n > ceiling {
		t.Errorf("%.0f allocations to set up and close the benchmark deployment, ceiling %d", n, ceiling)
	}
}
