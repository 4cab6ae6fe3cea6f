package pleroma

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pleroma/internal/obs"
	"pleroma/internal/openflow"
	"pleroma/internal/space"
	"pleroma/internal/wire"
)

// netWorkload is a deterministic pub/sub workload applied identically
// through the in-process facade and through TCP clients.
type netWorkload struct {
	subs []struct {
		id   string
		host int
		f    Filter
	}
	pubs []struct {
		id   string
		host int
		f    Filter
	}
	events []struct {
		pub  string
		vals []uint32
	}
}

func makeNetWorkload(seed int64, hosts int) netWorkload {
	rng := rand.New(rand.NewSource(seed))
	var w netWorkload
	for i := 0; i < 8; i++ {
		lo := uint32(rng.Intn(512))
		hi := lo + uint32(rng.Intn(512))
		w.subs = append(w.subs, struct {
			id   string
			host int
			f    Filter
		}{fmt.Sprintf("sub-%d", i), rng.Intn(hosts), NewFilter().Range("price", lo, hi)})
	}
	for i := 0; i < 2; i++ {
		w.pubs = append(w.pubs, struct {
			id   string
			host int
			f    Filter
		}{fmt.Sprintf("pub-%d", i), rng.Intn(hosts), NewFilter()})
	}
	for i := 0; i < 40; i++ {
		w.events = append(w.events, struct {
			pub  string
			vals []uint32
		}{w.pubs[rng.Intn(len(w.pubs))].id, []uint32{uint32(rng.Intn(1024)), uint32(rng.Intn(1024))}})
	}
	return w
}

func netTestSchema(t *testing.T) *Schema {
	t.Helper()
	sch, err := NewSchema(Attribute{Name: "price", Bits: 10}, Attribute{Name: "volume", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// deliveryKey renders a delivery for multiset comparison.
func deliveryKey(d Delivery) string {
	return fmt.Sprintf("%s|%v|%v|%v|%t", d.SubscriptionID, d.Event.Values, d.At, d.Latency, d.FalsePositive)
}

// TestLoopbackEquivalence is the golden test of the networked mode: the
// same seeded workload driven (a) through the in-process facade and (b)
// through TCP clients against a daemonized system on 127.0.0.1 must
// yield identical delivery multisets and identical control-plane
// digests. The transport boundary adds no semantics.
func TestLoopbackEquivalence(t *testing.T) {
	runLoopbackEquivalence(t, nil, nil, false)
}

// TestLoopbackEquivalencePipelined re-runs the golden equivalence with the
// publishes driven through the pipelined async path (coalesced multi-event
// frames, windowed acks) and a tiny publish window to force backpressure.
// The pipeline must be purely a transport optimization — identical
// delivery multisets, identical digests.
func TestLoopbackEquivalencePipelined(t *testing.T) {
	runLoopbackEquivalence(t, nil,
		[]DialOption{WithDialTransport(TransportOptions{Window: 2, BatchEvents: 8})},
		true)
}

// TestLoopbackEquivalenceTraced re-runs the golden equivalence with the
// full tracing stack on: observability on both systems, a traced client
// minting a distributed trace per publish. Tracing must be purely
// observational — identical deliveries, identical digests.
func TestLoopbackEquivalenceTraced(t *testing.T) {
	runLoopbackEquivalence(t,
		[]Option{WithObservability(4096)},
		[]DialOption{WithDialObservability(4096)},
		false)
}

func runLoopbackEquivalence(t *testing.T, extraSys []Option, extraDial []DialOption, pipelined bool) {
	opts := append([]Option{WithTopology(TopologyRing20), WithPartitions(4)}, extraSys...)
	w := makeNetWorkload(7, 20)

	// (a) in-process.
	inSys, err := NewSystem(netTestSchema(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer inSys.Close()
	hosts := inSys.Hosts()
	var inDeliveries []string
	for _, s := range w.subs {
		s := s
		if err := inSys.Subscribe(s.id, hosts[s.host], s.f, func(d Delivery) {
			inDeliveries = append(inDeliveries, deliveryKey(d))
		}); err != nil {
			t.Fatal(err)
		}
	}
	pubs := map[string]*Publisher{}
	for _, p := range w.pubs {
		pub, err := inSys.NewPublisher(p.id, hosts[p.host])
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Advertise(p.f); err != nil {
			t.Fatal(err)
		}
		pubs[p.id] = pub
	}
	for _, ev := range w.events {
		if err := pubs[ev.pub].Publish(ev.vals...); err != nil {
			t.Fatal(err)
		}
	}
	inSys.Run()
	inDigest, err := inSys.StateDigest()
	if err != nil {
		t.Fatal(err)
	}

	// (b) daemonized on 127.0.0.1, driven by two separate client
	// processes' worth of connections (one for subs, one for pubs).
	netSys, err := NewSystem(netTestSchema(t), append(opts, WithListener("127.0.0.1:0"))...)
	if err != nil {
		t.Fatal(err)
	}
	defer netSys.Close()
	subCli, err := Dial(netSys.ListenAddr(), append([]DialOption{WithDialID("equiv-sub")}, extraDial...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()
	pubCli, err := Dial(netSys.ListenAddr(), append([]DialOption{WithDialID("equiv-pub")}, extraDial...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer pubCli.Close()
	rHosts := subCli.Hosts()
	if len(rHosts) != len(hosts) {
		t.Fatalf("daemon reports %d hosts, in-process %d", len(rHosts), len(hosts))
	}
	var mu sync.Mutex
	var netDeliveries []string
	for _, s := range w.subs {
		if err := subCli.Subscribe(s.id, rHosts[s.host], s.f, func(d Delivery) {
			mu.Lock()
			netDeliveries = append(netDeliveries, deliveryKey(d))
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range w.pubs {
		if err := pubCli.Advertise(p.id, rHosts[p.host], p.f); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range w.events {
		if pipelined {
			err = pubCli.PublishAsync(ev.pub, ev.vals...)
		} else {
			err = pubCli.Publish(ev.pub, ev.vals...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if pipelined {
		// The ack barrier: every coalesced publish is applied at the daemon
		// before Run admits the simulated work.
		if err := pubCli.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pubCli.Run(); err != nil {
		t.Fatal(err)
	}
	// Receive barrier: all deliveries queued for the sub connection during
	// Run have been dispatched once Sync returns.
	if err := subCli.Sync(); err != nil {
		t.Fatal(err)
	}
	netDigest, err := subCli.StateDigest()
	if err != nil {
		t.Fatal(err)
	}

	if len(inDeliveries) == 0 {
		t.Fatal("workload produced no deliveries; equivalence vacuous")
	}
	sort.Strings(inDeliveries)
	mu.Lock()
	sort.Strings(netDeliveries)
	mu.Unlock()
	if len(inDeliveries) != len(netDeliveries) {
		t.Fatalf("delivery counts differ: in-process %d, networked %d", len(inDeliveries), len(netDeliveries))
	}
	for i := range inDeliveries {
		if inDeliveries[i] != netDeliveries[i] {
			t.Fatalf("delivery %d differs:\n  in-process: %s\n  networked:  %s", i, inDeliveries[i], netDeliveries[i])
		}
	}
	if !bytes.Equal(inDigest, netDigest) {
		t.Fatalf("control-plane digests differ:\n  in-process: %x\n  networked:  %x", inDigest, netDigest)
	}
}

// TestNetworkKillAndReconnect severs every client connection of a live
// daemon. The client must transparently redial, replay its
// advertisements and subscriptions (idempotent rebinds — control state
// untouched), and keep receiving deliveries; a resync afterwards finds
// nothing to repair.
func TestNetworkKillAndReconnect(t *testing.T) {
	sys, err := NewSystem(netTestSchema(t),
		WithTopology(TopologyRing20), WithPartitions(4), WithJournal(),
		WithListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	c, err := Dial(sys.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hosts := c.Hosts()
	var mu sync.Mutex
	var got []string
	if err := c.Subscribe("s", hosts[6], NewFilter().Range("price", 0, 511), func(d Delivery) {
		mu.Lock()
		got = append(got, deliveryKey(d))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Advertise("p", hosts[0], NewFilter()); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("p", 100, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	digestBefore, err := c.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	before := len(got)
	mu.Unlock()
	if before != 1 {
		t.Fatalf("baseline deliveries: %d, want 1", before)
	}

	// Sever every connection — a daemon-side crash of the client links.
	sys.server.DropConnections()

	// The next operation redials and replays the registrations. A second
	// identical advertise/subscribe must not duplicate control state.
	if err := c.Publish("p", 50, 60); err != nil {
		t.Fatalf("publish after kill: %v", err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	after := len(got)
	seen := map[string]int{}
	for _, k := range got {
		seen[k]++
	}
	mu.Unlock()
	if after != 2 {
		t.Fatalf("deliveries after reconnect: %d, want 2 (no loss, no duplication)", after)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("delivery %q received %d times", k, n)
		}
	}

	digestAfter, err := c.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(digestBefore, digestAfter) {
		t.Fatalf("control-plane digest changed across reconnect replay:\n  before: %x\n  after:  %x", digestBefore, digestAfter)
	}
	rr, err := sys.Resync()
	if err != nil {
		t.Fatal(err)
	}
	if repairs := rr.FlowAdds + rr.FlowDeletes + rr.FlowModifies; repairs != 0 {
		t.Fatalf("resync repaired %d flows after reconnect; switch state should be untouched", repairs)
	}
}

// TestPipelinedReconnectMidWindow severs every connection twice while a
// window of async publishes is in flight. The pipeline must redial on its
// own, replay the unacked window in order, and the daemon's per-publisher
// sequence dedup must absorb the replays: after Flush+Run+Sync the
// delivery multiset holds every published event exactly once.
func TestPipelinedReconnectMidWindow(t *testing.T) {
	sys, err := NewSystem(netTestSchema(t),
		WithTopology(TopologyRing20), WithListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	c, err := Dial(sys.ListenAddr(),
		WithDialRetry(RetryPolicy{
			MaxAttempts: 20, BaseBackoff: time.Millisecond,
			MaxBackoff: 10 * time.Millisecond, OpDeadline: 5 * time.Second,
		}),
		WithDialTransport(TransportOptions{Window: 4, BatchEvents: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hosts := c.Hosts()
	var mu sync.Mutex
	seen := map[uint32]int{}
	if err := c.Subscribe("s", hosts[6], NewFilter(), func(d Delivery) {
		mu.Lock()
		seen[d.Event.Values[0]]++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Advertise("p", hosts[0], NewFilter()); err != nil {
		t.Fatal(err)
	}

	const total = 60
	for i := 0; i < total; i++ {
		if err := c.PublishAsync("p", uint32(i), uint32(i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if i == 15 || i == 40 {
			// Kill the link with a partially-acked window in flight.
			sys.server.DropConnections()
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.AsyncErr(); err != nil {
		t.Fatalf("AsyncErr on a healthy pipeline: %v", err)
	}
	// A publisher that never advertised fails the pipeline: the error is
	// sticky and AsyncErr reports it without blocking.
	if err := c.PublishAsync("ghost", 1, 1); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if err := c.AsyncErr(); !errors.Is(err, ErrNotAdvertised) {
		t.Errorf("AsyncErr after an unadvertised publish: %v, want ErrNotAdvertised", err)
	}

	mu.Lock()
	defer mu.Unlock()
	for i := uint32(0); i < total; i++ {
		switch seen[i] {
		case 1:
		case 0:
			t.Errorf("event %d lost across reconnect", i)
		default:
			t.Errorf("event %d delivered %d times", i, seen[i])
		}
	}
	if len(seen) != total {
		t.Fatalf("distinct events delivered: %d, want %d", len(seen), total)
	}
}

// TestNetworkGracefulDrain stops the listener of a system with queued
// deliveries: every delivery already accepted must reach the client
// (flush-then-goodbye), and subsequent requests must fail cleanly.
func TestNetworkGracefulDrain(t *testing.T) {
	sys, err := NewSystem(netTestSchema(t), WithListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// A tight retry policy so the post-shutdown failure is quick.
	c, err := Dial(sys.ListenAddr(), WithDialRetry(RetryPolicy{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		OpDeadline: time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hosts := c.Hosts()
	var mu sync.Mutex
	count := 0
	if err := c.Subscribe("s", hosts[1], NewFilter(), func(Delivery) {
		mu.Lock()
		count++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Advertise("p", hosts[0], NewFilter()); err != nil {
		t.Fatal(err)
	}
	const burst = 25
	tuples := make([][]uint32, burst)
	for i := range tuples {
		tuples[i] = []uint32{uint32(i), uint32(i)}
	}
	if err := c.PublishBatch("p", tuples...); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}

	// Deliveries ride the connection FIFO ahead of the Run response, so
	// they have all been dispatched already; the drain must not lose that
	// invariant while shutting down.
	sys.StopListener()
	mu.Lock()
	n := count
	mu.Unlock()
	if n != burst {
		t.Fatalf("deliveries after drain: %d, want %d", n, burst)
	}
	if err := c.Sync(); err == nil {
		t.Fatal("request after StopListener succeeded; want failure")
	}
}

// TestPublishDedupOnRetry: the transport retries publishes at-least-once
// (a connection lost between the backend applying a publish and the OK
// arriving makes the client re-send it). The backend's per-publisher
// sequence numbers must make the retry idempotent.
func TestPublishDedupOnRetry(t *testing.T) {
	sys, err := NewSystem(netTestSchema(t), WithTopology(TopologyRing20))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	b := &netBackend{sys: sys}
	hosts := sys.Hosts()
	if err := b.Control(wire.ControlReq{Op: "advertise", ID: "p", Host: uint32(hosts[0])}, nil); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	err = b.Control(wire.ControlReq{Op: "subscribe", ID: "s", Host: uint32(hosts[5]),
		Ranges: []wire.Range{{Attr: "price", Lo: 0, Hi: 1023}}},
		func(wire.Delivery) { mu.Lock(); count++; mu.Unlock() })
	if err != nil {
		t.Fatal(err)
	}

	pub := wire.PublishReq{ID: "p", Seq: 1, Events: []space.Event{{Values: []uint32{5, 6}}}}
	if err := b.Publish(pub); err != nil {
		t.Fatal(err)
	}
	// The retry re-sends the identical request: acknowledged, not applied.
	if err := b.Publish(pub); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := count
	mu.Unlock()
	if n != 1 {
		t.Fatalf("deliveries after duplicate publish: %d, want 1", n)
	}

	// The next sequence number applies normally.
	if err := b.Publish(wire.PublishReq{ID: "p", Seq: 2, Events: []space.Event{{Values: []uint32{7, 8}}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n = count
	mu.Unlock()
	if n != 2 {
		t.Fatalf("deliveries after fresh publish: %d, want 2", n)
	}
}

// TestPersistSnapshotDurableOrdering: the journal may be compacted only
// after the snapshot covering it is durable on disk — a persist that
// cannot reach stable storage must leave every journal record in place.
func TestPersistSnapshotDurableOrdering(t *testing.T) {
	dir := t.TempDir()
	sys, err := NewSystem(netTestSchema(t), WithTopology(TopologyRing20), WithPartitions(1), WithJournalDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	hosts := sys.Hosts()
	for i := 0; i < 5; i++ {
		if err := sys.Subscribe(fmt.Sprintf("s%d", i), hosts[i],
			NewFilter().Range("price", uint32(i*10), uint32(i*10+9)), nil); err != nil {
			t.Fatal(err)
		}
	}
	p := sys.Partitions()[0]
	jpath := JournalPath(dir, p)
	before, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() == 0 {
		t.Fatal("journal empty before snapshot")
	}

	if err := sys.PersistSnapshot(p, filepath.Join(dir, "missing")); err == nil {
		t.Fatal("persist into a missing directory succeeded")
	}
	after, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("failed persist changed the journal: %d -> %d bytes", before.Size(), after.Size())
	}

	if err := sys.PersistSnapshot(p, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(SnapshotPath(dir, p)); err != nil {
		t.Fatalf("snapshot not persisted: %v", err)
	}
	compacted, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Size() >= before.Size() {
		t.Fatalf("journal not compacted after durable snapshot: %d -> %d bytes", before.Size(), compacted.Size())
	}
}

// TestSystemRestartWithState closes a file-journaled system and rebuilds
// an identical control plane in a fresh process-equivalent: Recover
// replays snapshot + journal suffix per partition and reinstalls the
// same flow tables.
func TestSystemRestartWithState(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithTopology(TopologyRing20), WithPartitions(2), WithJournalDir(dir)}

	sys1, err := NewSystem(netTestSchema(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	hosts := sys1.Hosts()
	pub, err := sys1.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := sys1.Subscribe(fmt.Sprintf("s%d", i), hosts[(i*3)%len(hosts)],
			NewFilter().Range("price", uint32(i*100), uint32(i*100+99)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot mid-stream so recovery exercises snapshot + journal suffix.
	snaps := map[int][]byte{}
	for _, p := range sys1.Partitions() {
		snap, err := sys1.Snapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		snaps[p] = snap
	}
	for i := 6; i < 10; i++ {
		if err := sys1.Subscribe(fmt.Sprintf("s%d", i), hosts[(i*3)%len(hosts)],
			NewFilter().Range("volume", uint32(i*50), uint32(i*50+49)), nil); err != nil {
			t.Fatal(err)
		}
	}
	want := flowDump(t, sys1)
	sys1.Close()

	// "Process restart": a fresh system over the same journal directory.
	sys2, err := NewSystem(netTestSchema(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	replayed := 0
	for _, p := range sys2.Partitions() {
		rep, err := sys2.Recover(p, snaps[p])
		if err != nil {
			t.Fatalf("recover partition %d: %v", p, err)
		}
		if !rep.FromSnapshot {
			t.Errorf("partition %d recovered without the snapshot", p)
		}
		replayed += rep.Replayed
	}
	if replayed == 0 {
		t.Error("no journal suffix replayed; post-snapshot ops lost")
	}
	if got := flowDump(t, sys2); got != want {
		t.Errorf("recovered flow tables differ from pre-restart tables:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if err := sys2.VerifyTables(); err != nil {
		t.Errorf("recovered tables out of sync with controllers: %v", err)
	}

	// The recovered system keeps working end to end.
	count := 0
	if err := sys2.Subscribe("fresh", hosts[4], NewFilter(), func(Delivery) { count++ }); err != nil {
		t.Fatal(err)
	}
	pub2, err := sys2.NewPublisher("p2", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub2.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	if err := pub2.Publish(1, 2); err != nil {
		t.Fatal(err)
	}
	sys2.Run()
	if count != 1 {
		t.Fatalf("post-recovery deliveries: %d, want 1", count)
	}
}

// flowDump renders every switch's flow table canonically (sorted, IDs
// ignored — installation order may differ across a recovery).
func flowDump(t *testing.T, s *System) string {
	t.Helper()
	var out []string
	for _, sw := range s.g.Switches() {
		flows, err := s.dp.Flows(sw)
		if err != nil {
			t.Fatal(err)
		}
		lines := make([]string, len(flows))
		for i, f := range flows {
			lines[i] = fmt.Sprintf("sw%d expr=%s prio=%d actions=%v", sw, f.Expr(), f.Priority, f.Actions)
		}
		sort.Strings(lines)
		out = append(out, lines...)
	}
	return fmt.Sprintf("%d flows\n", len(out)) + fmt.Sprint(out)
}

func TestParseFilter(t *testing.T) {
	f, err := ParseFilter("price:0-511,volume:10-20")
	if err != nil {
		t.Fatal(err)
	}
	if r := f.Ranges["price"]; r != [2]uint32{0, 511} {
		t.Errorf("price range %v", r)
	}
	if r := f.Ranges["volume"]; r != [2]uint32{10, 20} {
		t.Errorf("volume range %v", r)
	}
	if f, err := ParseFilter(""); err != nil || len(f.Ranges) != 0 {
		t.Errorf("empty filter: %v %v", f, err)
	}
	for _, bad := range []string{"price", "price:1", "price:a-2", "price:1-b"} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q) accepted", bad)
		}
	}
}

// TestJournalDirLayout pins the on-disk naming convention the daemon
// relies on.
func TestJournalDirLayout(t *testing.T) {
	dir := t.TempDir()
	sys, err := NewSystem(netTestSchema(t), WithTopology(TopologyRing20), WithPartitions(2), WithJournalDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, p := range sys.Partitions() {
		if _, err := os.Stat(JournalPath(dir, p)); err != nil {
			t.Errorf("partition %d journal missing: %v", p, err)
		}
	}
}

// TestSeveredDeliveriesCountedThenRebound: a delivery produced for a
// connection that was severed is counted as dropped, not lost silently
// (pleroma_transport_deliveries_dropped_total); once the subscriber
// reconnects, its replayed subscription rebinds the sink — the next event
// reaches the new connection once, and the old sink is not served again.
func TestSeveredDeliveriesCountedThenRebound(t *testing.T) {
	sys, err := NewSystem(netTestSchema(t), WithListener("127.0.0.1:0"), WithObservability(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sub, err := Dial(sys.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := Dial(sys.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	hosts := sub.Hosts()
	var mu sync.Mutex
	var got []string
	if err := sub.Subscribe("s", hosts[6], NewFilter(), func(d Delivery) {
		mu.Lock()
		got = append(got, deliveryKey(d))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise("p", hosts[0], NewFilter()); err != nil {
		t.Fatal(err)
	}
	dropped := func() float64 {
		v, _ := sys.Metrics().Counter(obs.MTransportDeliveriesDropped, "")
		return v
	}
	publish := func(price uint32) {
		t.Helper()
		if err := pub.Publish("p", price, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := pub.Run(); err != nil {
			t.Fatal(err)
		}
	}
	received := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}

	sys.server.DropConnections()
	// Only the publisher redials: the event is delivered to the
	// subscriber's severed connection.
	publish(100)
	if n := dropped(); n != 1 {
		t.Fatalf("dropped deliveries after publishing to a severed subscriber: %v, want 1", n)
	}
	// The subscriber's next request redials and replays the subscription.
	if err := sub.Sync(); err != nil {
		t.Fatal(err)
	}
	publish(200)
	if err := sub.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := received(); n != 1 {
		t.Fatalf("deliveries on the rebound connection: %d, want 1 (the event published after the reconnect)", n)
	}
	if n := dropped(); n != 1 {
		t.Fatalf("dropped deliveries after the rebind: %v, want still 1 (the old sink must not be served)", n)
	}
}

// TestDaemonRefusesSwitchWrites: a listening system serves no switch. A
// client that sends the retired flow-batch frame (kind 11, its payload laid
// out as the frame once was, adding the flow "1" on a switch) loses its
// connection, and every switch keeps exactly the flows its controller
// installed: same tables, same state digest, tables still verified, and a
// publish still delivered once.
func TestDaemonRefusesSwitchWrites(t *testing.T) {
	sys, err := NewSystem(netTestSchema(t), WithListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	if err := sys.Subscribe("s", hosts[7], NewFilter().Range("price", 0, 99), func(Delivery) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	tables := func() map[HostID][]openflow.Flow {
		out := make(map[HostID][]openflow.Flow)
		for _, sw := range sys.Switches() {
			flows, err := sys.dp.Flows(sw)
			if err != nil {
				t.Fatal(err)
			}
			out[sw] = flows
		}
		return out
	}
	flowsBefore := tables()
	digestBefore, err := sys.StateDigest()
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", sys.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := wire.EncodeHello(wire.Hello{ID: "intruder"})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendFrame(nil, wire.Frame{Kind: wire.KindHello, Corr: 1, Payload: hello})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if f, _, err := wire.ReadFrame(conn, nil); err != nil || f.Kind != wire.KindHelloOK {
		t.Fatalf("hello: got %v, %v", f.Kind, err)
	}
	sw := sys.Switches()[0]
	batch := []byte{
		0, 0, 0, 37, // length of kind + corr + payload
		11,                     // kind: the retired flow-batch
		0, 0, 0, 0, 0, 0, 0, 2, // corr
		1,                                                       // version
		byte(sw >> 24), byte(sw >> 16), byte(sw >> 8), byte(sw), // switch
		0, 1, // one op
		1,                      // add
		0, 0, 0, 0, 0, 0, 0, 0, // flow id
		0, 0, 0, 1, // priority 1
		1, 0x80, // dz "1"
		1, 0, 0, 0, 1, 0, // one action: out port 1, no rewrite
	}
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, _, err := wire.ReadFrame(conn, nil)
	if err == nil {
		t.Fatalf("the daemon answered a flow-batch frame with %v; want the connection closed", f.Kind)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("the daemon kept the connection open after a flow-batch frame")
	}

	if flowsAfter := tables(); !reflect.DeepEqual(flowsAfter, flowsBefore) {
		t.Fatalf("switch tables changed:\n before %v\n after  %v", flowsBefore, flowsAfter)
	}
	if digestAfter, err := sys.StateDigest(); err != nil || !bytes.Equal(digestAfter, digestBefore) {
		t.Fatalf("state digest changed (err %v)", err)
	}
	if err := sys.VerifyTables(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(42, 1000); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if delivered != 1 {
		t.Fatalf("%d deliveries, want 1", delivered)
	}
}

// TestNetworkConcurrentSessionsChurn is the concurrency stress of the one
// boundary that has concurrency: four client sessions, each driving its own
// seeded stream of advertisements, subscriptions, publishes, unsubscriptions
// and runs, against one listening System, while a fifth goroutine polls the
// operational endpoint. The server's request lock is all that orders the
// sessions' calls into the System; sharded delivery sinks run on shard
// workers. Under -race any state the controllers, tables or data plane
// touch outside that order is reported; afterwards the flow tables must
// verify and the data plane must have counted exactly the southbound calls
// the controllers made.
func TestNetworkConcurrentSessionsChurn(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			concurrentSessionsChurn(t, shards)
		})
	}
}

func concurrentSessionsChurn(t *testing.T, shards int) {
	sys, err := NewSystem(netTestSchema(t), WithTopology(TopologyRing20), WithPartitions(2), WithShards(shards),
		WithObservability(0), WithListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	stopPoll, polled := make(chan struct{}), make(chan int)
	go func() {
		h := sys.ObsHandler()
		n := 0
		for {
			select {
			case <-stopPoll:
				polled <- n
				return
			default:
			}
			for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
			}
			n++
		}
	}()

	const sessions, steps = 4, 60
	var delivered atomic.Uint64
	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for c := 0; c < sessions; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- churnSession(sys.ListenAddr(), c, steps, &delivered)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	close(stopPoll)
	if n := <-polled; n == 0 {
		t.Error("the endpoint poller never completed a round")
	}
	// Stop joins every session goroutine of the server: from here the test
	// goroutine is the System's owner.
	sys.StopListener()
	if t.Failed() {
		return
	}
	if delivered.Load() == 0 {
		t.Error("churn delivered nothing; the stress is vacuous")
	}
	if err := sys.VerifyTables(); err != nil {
		t.Fatalf("tables after concurrent sessions: %v", err)
	}
	var ctlCalls uint64
	for _, p := range sys.Partitions() {
		ctl, err := sys.fab.Controller(p)
		if err != nil {
			t.Fatal(err)
		}
		ctlCalls += ctl.Stats().SouthboundCalls
	}
	if ctlCalls == 0 {
		t.Error("expected southbound traffic")
	}
	if got := sys.dp.SouthboundCalls(); got != ctlCalls {
		t.Errorf("southbound call accounting differs: data plane %d, controllers %d", got, ctlCalls)
	}
}

// TestNetworkSyncBarrierAcrossSessions: a client's Sync is a receive barrier
// for every delivery to it, also while other sessions send requests and the
// deliveries come from shard workers. Connection X holds 40 match-all
// subscriptions and runs rounds of PublishBatch, Run and Sync, counting its
// deliveries at every Sync; connection Y loops Sync meanwhile.
func TestNetworkSyncBarrierAcrossSessions(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			syncBarrierAcrossSessions(t, shards)
		})
	}
}

func syncBarrierAcrossSessions(t *testing.T, shards int) {
	const subs, events, rounds = 40, 20, 200
	sys, err := NewSystem(netTestSchema(t), WithTopology(TopologyRing20), WithShards(shards),
		WithListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	x, err := Dial(sys.ListenAddr(), WithDialID("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	y, err := Dial(sys.ListenAddr(), WithDialID("y"))
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()

	hosts := x.Hosts()
	if err := x.Advertise("x-p", hosts[0], NewFilter()); err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	for i := 0; i < subs; i++ {
		id := fmt.Sprintf("x-s%d", i)
		if err := x.Subscribe(id, hosts[i%len(hosts)], NewFilter(), func(Delivery) { got.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([][]uint32, events)
	for i := range batch {
		batch[i] = []uint32{uint32(i * 37 % 1024), uint32(i)}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := y.Sync(); err != nil {
				t.Errorf("Y sync: %v", err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for round := 1; round <= rounds; round++ {
		if err := x.PublishBatch("x-p", batch...); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Run(); err != nil {
			t.Fatal(err)
		}
		if err := x.Sync(); err != nil {
			t.Fatal(err)
		}
		if n, want := got.Load(), int64(round*events*subs); n != want {
			t.Fatalf("round %d: %d deliveries at X's Sync, want %d", round, n, want)
		}
	}
}

// churnSession is one client of TestNetworkConcurrentSessionsChurn: a
// seeded stream of control ops, publishes and runs under ids of its own.
func churnSession(addr string, c, steps int, delivered *atomic.Uint64) error {
	prefix := fmt.Sprintf("c%d", c)
	cli, err := Dial(addr, WithDialID(prefix))
	if err != nil {
		return err
	}
	defer cli.Close()
	hosts := cli.Hosts()
	r := rand.New(rand.NewSource(int64(4200 + c)))
	host := func() HostID { return hosts[r.Intn(len(hosts))] }
	priceRange := func() Filter {
		lo := uint32(r.Intn(1000))
		return NewFilter().Range("price", lo, min(lo+uint32(r.Intn(400)), 1023))
	}
	pub, extra := prefix+"-p", ""
	if err := cli.Advertise(pub, host(), NewFilter()); err != nil {
		return fmt.Errorf("%s: advertise: %w", prefix, err)
	}
	var subs []string
	for i := 0; i < steps; i++ {
		switch roll := r.Intn(100); {
		case roll < 30:
			id := fmt.Sprintf("%s-s%d", prefix, i)
			if err := cli.Subscribe(id, host(), priceRange(), func(Delivery) { delivered.Add(1) }); err != nil {
				return fmt.Errorf("%s: subscribe %s: %w", prefix, id, err)
			}
			subs = append(subs, id)
		case roll < 45 && len(subs) > 0:
			k := r.Intn(len(subs))
			id := subs[k]
			subs = append(subs[:k], subs[k+1:]...)
			if err := cli.Unsubscribe(id); err != nil {
				return fmt.Errorf("%s: unsubscribe %s: %w", prefix, id, err)
			}
		case roll < 55 && extra != "":
			if err := cli.Unadvertise(extra); err != nil {
				return fmt.Errorf("%s: unadvertise %s: %w", prefix, extra, err)
			}
			extra = ""
		case roll < 55:
			extra = fmt.Sprintf("%s-q%d", prefix, i)
			if err := cli.Advertise(extra, host(), priceRange()); err != nil {
				return fmt.Errorf("%s: advertise %s: %w", prefix, extra, err)
			}
		case roll < 85:
			if err := cli.Publish(pub, uint32(r.Intn(1024)), uint32(r.Intn(1024))); err != nil {
				return fmt.Errorf("%s: publish: %w", prefix, err)
			}
		default:
			if _, err := cli.Run(); err != nil {
				return fmt.Errorf("%s: run: %w", prefix, err)
			}
		}
	}
	if _, err := cli.Run(); err != nil {
		return fmt.Errorf("%s: final run: %w", prefix, err)
	}
	return cli.Sync()
}

// TestNetworkConcurrentPublishSameID: blocking Publish is safe for concurrent
// use on one publisher id. Every acknowledged publish is delivered exactly
// once, which needs the publishes to reach the daemon in the order of their
// sequence numbers: the daemon acknowledges a sequence number at or below the
// last one it applied as a duplicate without applying it. The control case
// gives every goroutine a publisher id of its own.
func TestNetworkConcurrentPublishSameID(t *testing.T) {
	for _, shared := range []bool{true, false} {
		t.Run(fmt.Sprintf("shared=%t", shared), func(t *testing.T) {
			concurrentPublish(t, shared)
		})
	}
}

func concurrentPublish(t *testing.T, shared bool) {
	const goroutines, perGoroutine, rounds = 8, 200, 5
	sys, err := NewSystem(netTestSchema(t), WithTopology(TopologyRing20), WithListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pub, err := Dial(sys.ListenAddr(), WithDialID("pub"))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := Dial(sys.ListenAddr(), WithDialID("sub"))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	hosts := pub.Hosts()
	pubID := func(g int) string {
		if shared {
			return "p"
		}
		return fmt.Sprintf("p%d", g)
	}
	ids := goroutines
	if shared {
		ids = 1
	}
	for g := 0; g < ids; g++ {
		if err := pub.Advertise(pubID(g), hosts[0], NewFilter()); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	delivered := make(map[[2]uint32]int)
	if err := sub.Subscribe("s", hosts[len(hosts)-1], NewFilter(), func(d Delivery) {
		mu.Lock()
		delivered[[2]uint32{d.Event.Values[0], d.Event.Values[1]}]++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		acked := make([][]bool, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			acked[g] = make([]bool, perGoroutine)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perGoroutine; i++ {
					if err := pub.Publish(pubID(g), uint32(g), uint32(i)); err != nil {
						t.Errorf("round %d: publish %d/%d: %v", round, g, i, err)
						continue
					}
					acked[g][i] = true
				}
			}(g)
		}
		wg.Wait()
		if _, err := pub.Run(); err != nil {
			t.Fatal(err)
		}
		if err := sub.Sync(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		lost, extra := 0, 0
		for g := range acked {
			for i, ok := range acked[g] {
				want := 0
				if ok {
					want = 1
				}
				got := delivered[[2]uint32{uint32(g), uint32(i)}]
				lost += max(want-got, 0)
				extra += max(got-want, 0)
			}
		}
		clear(delivered)
		mu.Unlock()
		if lost != 0 || extra != 0 {
			t.Fatalf("round %d: %d acknowledged publishes lost, %d extra deliveries", round, lost, extra)
		}
	}
}
