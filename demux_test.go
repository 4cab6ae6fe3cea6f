package pleroma

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/obs"
	"pleroma/internal/topo"
)

// demux_test.go pins the host demux index (demux.go): a differential test
// and fuzz target against the linear Set.Overlaps scan it replaced, the
// handler re-entrancy rule of dispatch, the zero-allocation lookup, the
// candidate counter, and equivalence under WithShards.

// TestHandlerUnsubscribeDuringDispatch pins the re-entrancy rule of
// dispatch: a packet goes to the subscriptions registered on the host when
// it arrived, in slot order, skipping any unsubscribed before its turn and
// never to one twice; a subscription added by a handler does not see the
// packet in flight. (The scan this index replaced ranged over the list
// Unsubscribe swap-removes from, and delivered the moved element twice.)
func TestHandlerUnsubscribeDuringDispatch(t *testing.T) {
	sys := newSys(t)
	host := sys.Hosts()[3]
	var got []string
	record := func(d Delivery) { got = append(got, d.SubscriptionID) }
	handlers := map[string]func(Delivery){
		"a": func(d Delivery) {
			record(d)
			if _, live := sys.subs["b"]; live {
				if err := sys.Unsubscribe("b"); err != nil {
					t.Error(err)
				}
			}
		},
		"b": record,
		"c": func(d Delivery) {
			record(d)
			if _, dup := sys.subs["e"]; !dup {
				if err := sys.Subscribe("e", host, NewFilter(), record); err != nil {
					t.Error(err)
				}
			}
		},
		"d": record,
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := sys.Subscribe(id, host, NewFilter(), handlers[id]); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := sys.NewPublisher("p", sys.Hosts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	publish := func() []string {
		t.Helper()
		got = nil
		if err := pub.Publish(1, 2); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		return got
	}
	// In flight: b is gone before its turn, d (moved into b's slot) is
	// delivered once and in its arrival-time position, e is too late.
	if got, want := publish(), []string{"a", "c", "d"}; !slices.Equal(got, want) {
		t.Fatalf("packet in flight during unsubscribe: delivered to %v, want %v", got, want)
	}
	// Afterwards: slot order with d in b's slot, and e registered.
	if got, want := publish(), []string{"a", "d", "c", "e"}; !slices.Equal(got, want) {
		t.Fatalf("next packet: delivered to %v, want %v", got, want)
	}
}

// TestHandlerRunsSimulationDuringDispatch: a handler that drives the
// simulation re-enters dispatch on its own host for a packet matching other
// subscriptions; the outer packet's match list must survive it (the scratch
// list is off the host while handlers run).
func TestHandlerRunsSimulationDuringDispatch(t *testing.T) {
	sys := newSys(t)
	host := sys.Hosts()[3]
	type rec struct {
		sub string
		v   uint32
	}
	var got []rec
	record := func(d Delivery) { got = append(got, rec{d.SubscriptionID, d.Event.Values[0]}) }
	nested := false
	subs := []struct {
		id string
		f  Filter
		h  func(Delivery)
	}{
		{"a", NewFilter(), func(d Delivery) {
			record(d)
			if !nested {
				nested = true
				sys.Run()
			}
		}},
		{"b", NewFilter().Range("price", 0, 511), record},
		{"c", NewFilter().Range("price", 512, 1023), record},
		{"d", NewFilter(), record},
	}
	for _, s := range subs {
		if err := sys.Subscribe(s.id, host, s.f, s.h); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := sys.NewPublisher("p", sys.Hosts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishBatch([]uint32{1, 1}, []uint32{1000, 1}); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	// The second packet is delivered whole inside a's handler for the first.
	want := []rec{{"a", 1}, {"a", 1000}, {"c", 1000}, {"d", 1000}, {"b", 1}, {"d", 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// TestHandlerSeesOwnDeliveryCounted pins the in-handler half of the Stats
// read contract on a single-engine system: dispatch counts a delivery before
// it calls the handler, so a handler reading Stats sees itself counted, and
// across one packet matching three subscriptions the count rises by exactly
// one per handler call.
func TestHandlerSeesOwnDeliveryCounted(t *testing.T) {
	sys := newSys(t)
	host := sys.Hosts()[3]
	var seen []uint64
	for _, id := range []string{"a", "b", "c"} {
		if err := sys.Subscribe(id, host, NewFilter(), func(Delivery) {
			seen = append(seen, sys.Stats().Deliveries)
		}); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := sys.NewPublisher("p", sys.Hosts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	base := sys.Stats().Deliveries
	if err := pub.Publish(1, 2); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if want := []uint64{base + 1, base + 2, base + 3}; !slices.Equal(seen, want) {
		t.Fatalf("handlers read Stats().Deliveries %v, want %v", seen, want)
	}
	if got := sys.Stats().Deliveries; got != base+3 {
		t.Fatalf("Stats().Deliveries after the run = %d, want %d", got, base+3)
	}
}

// demuxDiff interprets a byte program as a sequence of subscribe /
// unsubscribe / Resubscribe / ReindexDimensions / ResetDimensions calls over
// three hosts of a system whose sets are truncated at L_dz, and after every
// step checks dispatch against the scan it replaced: for event keys longer
// than, equal to and shorter than the stored ones, the handlers that fire —
// and their order — are the subscriptions of the host's list, in list
// order, whose set Overlaps the key, each flagged a false positive exactly
// when its rectangle does not contain the event. The list and the rectangles
// are modelled here (append, swap-remove; the filter last subscribed or
// resubscribed with), not read from the index's own bookkeeping.
type demuxDiff struct {
	t     testing.TB
	sys   *System
	prog  []byte
	hosts []HostID
	model map[HostID][]string // the old byHost lists
	rects map[string]dz.Rect  // each live subscription's rectangle
	next  int
	fired []demuxFired
}

// demuxFired is one handler call: who, and flagged how.
type demuxFired struct {
	id string
	fp bool
}

const (
	demuxDiffMaxDz   = 10
	demuxDiffMaxSubs = 6
)

func newDemuxDiff(t testing.TB, prog []byte) *demuxDiff {
	sch, err := NewSchema(
		Attribute{Name: "x", Bits: 6},
		Attribute{Name: "y", Bits: 6},
		Attribute{Name: "z", Bits: 6},
	)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sch, WithMaxDzLen(demuxDiffMaxDz), WithMaxSubspaces(demuxDiffMaxSubs))
	if err != nil {
		t.Fatal(err)
	}
	all := sys.Hosts()
	pub, err := sys.NewPublisher("p", all[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	// A window of events for ReindexDimensions to select from.
	for i := uint32(0); i < 16; i++ {
		if err := pub.Publish(i*4%64, i*i%64, 7); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	return &demuxDiff{t: t, sys: sys, prog: prog, hosts: all[1:4],
		model: make(map[HostID][]string), rects: make(map[string]dz.Rect)}
}

// setRect records the rectangle of f as id's in the model.
func (d *demuxDiff) setRect(id string, f Filter) {
	rect, err := d.sys.sch.Rect(f)
	if err != nil {
		d.t.Fatal(err)
	}
	d.rects[id] = rect
}

// byte returns the next program byte, 0 once the program is exhausted.
func (d *demuxDiff) byte() int {
	if len(d.prog) == 0 {
		return 0
	}
	b := d.prog[0]
	d.prog = d.prog[1:]
	return int(b)
}

func (d *demuxDiff) filter() Filter {
	f := NewFilter()
	for _, name := range []string{"x", "y", "z"} {
		lo := d.byte() % 64
		hi := lo + d.byte()%(64-lo)
		if lo == 0 && hi == 0 {
			continue // leave the attribute unconstrained
		}
		f = f.Range(name, uint32(lo), uint32(hi))
	}
	return f
}

// pick returns a live subscription id and its host, or "" when none is.
func (d *demuxDiff) pick() (string, HostID) {
	host := d.hosts[d.byte()%len(d.hosts)]
	ids := d.model[host]
	if len(ids) == 0 {
		return "", host
	}
	return ids[d.byte()%len(ids)], host
}

func (d *demuxDiff) run(maxSteps int) {
	for step := 0; step < maxSteps && len(d.prog) > 0; step++ {
		switch op := d.byte() % 8; op {
		case 0, 1, 2:
			host := d.hosts[d.byte()%len(d.hosts)]
			id := fmt.Sprintf("s%d", d.next)
			d.next++
			f := d.filter()
			err := d.sys.Subscribe(id, host, f, func(dl Delivery) {
				d.fired = append(d.fired, demuxFired{dl.SubscriptionID, dl.FalsePositive})
			})
			if err != nil {
				d.t.Fatalf("step %d: subscribe: %v", step, err)
			}
			d.model[host] = append(d.model[host], id)
			d.setRect(id, f)
		case 3, 4:
			id, host := d.pick()
			if id == "" {
				continue
			}
			if err := d.sys.Unsubscribe(id); err != nil {
				d.t.Fatalf("step %d: unsubscribe: %v", step, err)
			}
			ids := d.model[host]
			i := slices.Index(ids, id)
			ids[i] = ids[len(ids)-1]
			d.model[host] = ids[:len(ids)-1]
			delete(d.rects, id)
		case 5:
			id, _ := d.pick()
			if id == "" {
				continue
			}
			f := d.filter()
			if err := d.sys.Resubscribe(id, f); err != nil {
				d.t.Fatalf("step %d: resubscribe: %v", step, err)
			}
			d.setRect(id, f)
		case 6:
			// Fails with nothing to select from; the index must hold anyway.
			_, _ = d.sys.ReindexDimensions(float64(1+d.byte()%10) / 10)
		case 7:
			if err := d.sys.ResetDimensions(); err != nil {
				d.t.Fatalf("step %d: reset dimensions: %v", step, err)
			}
		}
		d.check(step)
	}
}

// check probes every host with a random key, a stored member extended by a
// few bits, and a stored member cut short.
func (d *demuxDiff) check(step int) {
	bits := func(n int) dz.Expr {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = '0' + byte(d.byte()&1)
		}
		return dz.Expr(buf)
	}
	for _, host := range d.hosts {
		probes := []dz.Expr{bits(d.byte() % (demuxDiffMaxDz + 4))}
		if ids := d.model[host]; len(ids) > 0 {
			set := d.sys.subs[ids[d.byte()%len(ids)]].set
			member := set[d.byte()%len(set)]
			probes = append(probes, member+bits(d.byte()%4), member[:d.byte()%(len(member)+1)])
		}
		for _, probe := range probes {
			d.probe(step, host, probe)
		}
	}
}

func (d *demuxDiff) probe(step int, host HostID, expr dz.Expr) {
	// The event sits on a corner of one of the host's rectangles, so that
	// some deliveries are exact and, the rectangles being independent of the
	// probe key, most are false positives.
	point := []uint32{1, 2, 3}
	if ids := d.model[host]; len(ids) > 0 {
		r := d.rects[ids[step%len(ids)]]
		point = []uint32{r[0].Lo, r[1].Hi, r[2].Lo}
	}
	var want []demuxFired
	for _, id := range d.model[host] {
		if d.sys.subs[id].set.Overlaps(expr.Truncate(demuxDiffMaxDz)) {
			want = append(want, demuxFired{id, !dz.RectContainsPoint(d.rects[id], point)})
		}
	}
	d.fired = d.fired[:0]
	before := d.sys.Stats().Deliveries
	key, _ := dz.KeyOf(expr)
	d.sys.dispatch(host, netem.Delivery{Host: host, Packet: netem.Packet{
		Key:   key,
		Event: Event{Values: point},
	}})
	if !slices.Equal(d.fired, want) {
		d.t.Fatalf("step %d host %d key %q event %v: index delivered to %v, scan to %v (id, false positive)",
			step, host, expr, point, d.fired, want)
	}
	if got := d.sys.Stats().Deliveries - before; got != uint64(len(want)) {
		d.t.Fatalf("step %d host %d key %q: %d deliveries counted, want %d", step, host, expr, got, len(want))
	}
}

func TestHostDemuxMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog := make([]byte, 6000)
		r.Read(prog)
		d := newDemuxDiff(t, prog)
		d.run(150)
		if d.next == 0 {
			t.Fatalf("seed %d: program subscribed nothing", seed)
		}
	}
}

// FuzzHostDemux lets the fuzzer write the program of TestHostDemuxMatchesScan.
func FuzzHostDemux(f *testing.F) {
	// subscribe ×3 on one host, unsubscribe the first, probe.
	f.Add([]byte{0, 0, 1, 40, 2, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 20, 3, 20, 3, 20, 3, 0, 0})
	// whole-space and narrow subscriptions, re-index, reset.
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 2, 1, 5, 3, 60, 2, 7, 1, 6, 9, 0, 1, 7, 5, 1, 0, 9, 9, 9, 9, 9, 9})
	// resubscribe after churn on two hosts.
	f.Add([]byte{0, 2, 8, 8, 8, 8, 8, 8, 0, 2, 1, 1, 1, 1, 1, 1, 4, 2, 0, 5, 2, 0, 30, 30, 2, 2, 0, 0})
	// The committed corpus adds seed-cell-churn: subscribe, unsubscribe,
	// subscribe on one host — the newcomer takes the freed cell and must bring
	// its own rectangle — then the same again and a resubscribe.
	f.Fuzz(func(t *testing.T, prog []byte) {
		newDemuxDiff(t, prog).run(48)
	})
}

// demuxFixture puts n pseudo-random subscriptions on one host and returns
// that host and an event key matching some of them.
func demuxFixture(t *testing.T, n int, opts ...Option) (*System, HostID, dz.Key) {
	sys := newSys(t, opts...)
	host := sys.Hosts()[2]
	r := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		lo, vlo := uint32(r.Intn(900)), uint32(r.Intn(900))
		f := NewFilter().Range("price", lo, lo+100).Range("volume", vlo, vlo+100)
		if err := sys.Subscribe(fmt.Sprintf("s%d", i), host, f, nil); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := sys.sch.NewEvent(450, 450)
	if err != nil {
		t.Fatal(err)
	}
	key, err := sys.sch.EncodeKey(ev, sys.sch.Geometry().MaxLen())
	if err != nil {
		t.Fatal(err)
	}
	return sys, host, key
}

// TestHostDemuxNoAlloc: once the scratch list has grown, demultiplexing a
// packet against 512 subscriptions allocates nothing — lookup, ordering and
// de-duplication included, with observability on or off.
func TestHostDemuxNoAlloc(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithObservability(0)}} {
		sys, host, key := demuxFixture(t, 512, opts...)
		dl := netem.Delivery{Host: host, Packet: netem.Packet{
			Key: key, Event: Event{Values: []uint32{450, 450}},
		}}
		before := sys.Stats().Deliveries
		sys.dispatch(host, dl)
		if sys.Stats().Deliveries == before {
			t.Fatal("fixture event matches no subscription")
		}
		if allocs := testing.AllocsPerRun(100, func() { sys.dispatch(host, dl) }); allocs != 0 {
			t.Fatalf("observability=%v: dispatch against 512 subscriptions allocates %v/op", opts != nil, allocs)
		}
	}
}

// TestHostDemuxCandidatesCounter: the obs counter reports the index entries
// demux visited — here exactly the matches — not the subscriptions on the
// host.
func TestHostDemuxCandidatesCounter(t *testing.T) {
	sys, host, key := demuxFixture(t, 512, WithObservability(0))
	sys.dispatch(host, netem.Delivery{Host: host, Packet: netem.Packet{
		Key: key, Event: Event{Values: []uint32{450, 450}},
	}})
	snap := sys.Metrics()
	candidates, _ := snap.Counter(obs.MHostDemuxCandidates, "")
	deliveries, _ := snap.Counter(obs.MDeliveries, "")
	if deliveries == 0 || candidates != deliveries {
		t.Fatalf("candidates %v, deliveries %v: want equal and non-zero", candidates, deliveries)
	}
}

// TestHostDemuxSharded: with 64 subscriptions on every host of a fat-tree
// split over 4 shards, the per-host indexes and scratch lists are written
// and read on different shard workers concurrently; the delivery multiset
// equals the single-engine run. Raced by `make race`.
func TestHostDemuxSharded(t *testing.T) {
	type rec struct {
		sub  string
		vals [2]uint32
		fp   bool
	}
	drive := func(shards int) (map[rec]int, Stats) {
		sch, err := NewSchema(Attribute{Name: "x", Bits: 10}, Attribute{Name: "y", Bits: 10})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(sch, WithFatTree(4, 4, 2), WithMaxDzLen(16), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		hosts := sys.Hosts()
		if shards > 1 {
			assign, _ := topo.ShardNodes(sys.g, shards)
			seen := make(map[int32]bool)
			for _, h := range hosts[4:] {
				seen[assign[h]] = true
			}
			if len(seen) < 3 {
				t.Fatalf("subscriber hosts span %d shards; want several", len(seen))
			}
		}
		var mu sync.Mutex
		got := make(map[rec]int)
		r := rand.New(rand.NewSource(4242))
		for i := 0; i < 64*len(hosts[4:]); i++ {
			lo, ylo := uint32(r.Intn(960)), uint32(r.Intn(960))
			f := NewFilter().Range("x", lo, lo+uint32(r.Intn(64))).Range("y", ylo, ylo+uint32(r.Intn(64)))
			err := sys.Subscribe(fmt.Sprintf("s%d", i), hosts[4+i%len(hosts[4:])], f, func(d Delivery) {
				mu.Lock()
				got[rec{d.SubscriptionID, [2]uint32{d.Event.Values[0], d.Event.Values[1]}, d.FalsePositive}]++
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		var pubs []*Publisher
		for i := 0; i < 4; i++ {
			pub, err := sys.NewPublisher(fmt.Sprintf("p%d", i), hosts[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := pub.Advertise(NewFilter()); err != nil {
				t.Fatal(err)
			}
			pubs = append(pubs, pub)
		}
		for round := 0; round < 6; round++ {
			for _, pub := range pubs {
				tuples := make([][]uint32, 16)
				for j := range tuples {
					tuples[j] = []uint32{uint32(r.Intn(1024)), uint32(r.Intn(1024))}
				}
				if err := pub.PublishBatch(tuples...); err != nil {
					t.Fatal(err)
				}
			}
			sys.Run()
		}
		return got, sys.Stats()
	}
	single, singleStats := drive(1)
	sharded, shardedStats := drive(4)
	if len(single) == 0 {
		t.Fatal("workload delivered nothing")
	}
	if !reflect.DeepEqual(single, sharded) {
		t.Fatalf("delivery multisets differ: single %d distinct, sharded %d", len(single), len(sharded))
	}
	if singleStats.Deliveries != shardedStats.Deliveries || singleStats.FalsePositives != shardedStats.FalsePositives {
		t.Fatalf("counters differ:\nsingle:  %+v\nsharded: %+v", singleStats, shardedStats)
	}
}

// TestResubscribeRewritesRectangle: the rectangle dispatch filters false
// positives with is the one last subscribed with. After Resubscribe an event
// inside the new rectangle is delivered unflagged, and one that only the old
// rectangle contained — still delivered, the dz being coarser than either —
// is flagged.
func TestResubscribeRewritesRectangle(t *testing.T) {
	sys := newSys(t, WithMaxDzLen(4))
	hosts := sys.Hosts()
	flagged := make(map[uint32]bool)
	if err := sys.Subscribe("s", hosts[5], NewFilter().Range("price", 80, 140), func(d Delivery) {
		flagged[d.Event.Values[0]] = d.FalsePositive
	}); err != nil {
		t.Fatal(err)
	}
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	publish := func() {
		t.Helper()
		clear(flagged)
		if err := pub.PublishBatch([]uint32{90, 1}, []uint32{105, 1}); err != nil {
			t.Fatal(err)
		}
		sys.Run()
	}
	publish()
	if want := map[uint32]bool{90: false, 105: false}; !reflect.DeepEqual(flagged, want) {
		t.Fatalf("before Resubscribe: false-positive flags %v, want %v", flagged, want)
	}
	if err := sys.Resubscribe("s", NewFilter().Range("price", 100, 110)); err != nil {
		t.Fatal(err)
	}
	publish()
	if want := map[uint32]bool{90: true, 105: false}; !reflect.DeepEqual(flagged, want) {
		t.Fatalf("after Resubscribe: false-positive flags %v, want %v", flagged, want)
	}
}

// TestHandlerRecyclesCellDuringDispatch: a handler unsubscribes b and
// subscribes e while the packet that fired it is in flight. A subscription's
// dense state is a recycled cell, and the dispatch holds b's in its match
// list: were it handed to e at once, e would fire for a packet that arrived
// before it subscribed. The rule — a cell freed during a dispatch on its host
// is not handed out until the outermost dispatch there returns.
func TestHandlerRecyclesCellDuringDispatch(t *testing.T) {
	sys := newSys(t)
	host := sys.Hosts()[3]
	var got []string
	record := func(d Delivery) { got = append(got, d.SubscriptionID) }
	handlers := map[string]func(Delivery){
		"a": func(d Delivery) {
			record(d)
			if _, live := sys.subs["b"]; !live {
				return
			}
			if err := sys.Unsubscribe("b"); err != nil {
				t.Error(err)
			}
			if err := sys.Subscribe("e", host, NewFilter(), record); err != nil {
				t.Error(err)
			}
		},
		"b": record, "c": record, "d": record,
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := sys.Subscribe(id, host, NewFilter(), handlers[id]); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := sys.NewPublisher("p", sys.Hosts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	publish := func() []string {
		t.Helper()
		got = nil
		if err := pub.Publish(1, 2); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		return got
	}
	if got, want := publish(), []string{"a", "c", "d"}; !slices.Equal(got, want) {
		t.Fatalf("packet in flight: delivered to %v, want %v (e subscribed after it arrived, d once)", got, want)
	}
	if got, want := publish(), []string{"a", "d", "c", "e"}; !slices.Equal(got, want) {
		t.Fatalf("next packet: delivered to %v, want %v", got, want)
	}
	// The cell did come back once the dispatch was over.
	h := &sys.hosts[host]
	if len(h.limbo) != 0 || len(h.free) != 1 {
		t.Fatalf("after the dispatch: %d cells in limbo, %d free; want 0 and 1", len(h.limbo), len(h.free))
	}
}

// TestNestedDispatchHoldsFreedCells: the same rule across a nested dispatch.
// a's handler for the first packet drives the simulation; inside, the second
// packet's dispatch on the same host unsubscribes b. When that inner dispatch
// returns the outer one still holds b's cell, so the e that a subscribes next
// must not get it: the outer packet goes on to c and d only.
func TestNestedDispatchHoldsFreedCells(t *testing.T) {
	sys := newSys(t)
	host := sys.Hosts()[3]
	type rec struct {
		sub string
		v   uint32
	}
	var got []rec
	record := func(d Delivery) { got = append(got, rec{d.SubscriptionID, d.Event.Values[0]}) }
	nested := false
	handlers := map[string]func(Delivery){
		"a": func(d Delivery) {
			record(d)
			if nested {
				return
			}
			nested = true
			sys.Run()
			if err := sys.Subscribe("e", host, NewFilter(), record); err != nil {
				t.Error(err)
			}
		},
		"b": record,
		"c": func(d Delivery) {
			record(d)
			if _, live := sys.subs["b"]; live {
				if err := sys.Unsubscribe("b"); err != nil {
					t.Error(err)
				}
			}
		},
		"d": record,
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := sys.Subscribe(id, host, NewFilter(), handlers[id]); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := sys.NewPublisher("p", sys.Hosts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishBatch([]uint32{1, 1}, []uint32{2, 1}); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	want := []rec{{"a", 1}, {"a", 2}, {"b", 2}, {"c", 2}, {"d", 2}, {"c", 1}, {"d", 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	got = nil
	if err := pub.Publish(3, 1); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if want := []rec{{"a", 3}, {"d", 3}, {"c", 3}, {"e", 3}}; !slices.Equal(got, want) {
		t.Fatalf("next packet: delivered %v, want %v", got, want)
	}
}
