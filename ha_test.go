package pleroma

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestControllerFailoverScenario kills and replaces a partition's
// controller mid-stream on both simulation engines: delivery must
// continue unchanged through the promoted standby.
func TestControllerFailoverScenario(t *testing.T) {
	engineVariants(t, controllerFailoverScenario)
}

func controllerFailoverScenario(t *testing.T, opts ...Option) {
	sch, err := NewSchema(Attribute{Name: "v", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{
		WithTopology(TopologyRing20), WithPartitions(4), WithJournal(),
	}, opts...)
	sys, err := NewSystem(sch, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	count := 0
	// hosts[6] sits in partition 1 (5 hosts per partition), so the stream
	// crosses the failed-over transit controller's partition border.
	if err := sys.Subscribe("s", hosts[6], NewFilter(), func(Delivery) { count++ }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(1); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if count != 1 {
		t.Fatalf("baseline: %d", count)
	}

	// Fail over every partition in turn, publishing through each takeover.
	for i, p := range sys.Partitions() {
		if i%2 == 0 {
			if _, err := sys.Snapshot(p); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := sys.Failover(p)
		if err != nil {
			t.Fatalf("failover partition %d: %v", p, err)
		}
		if rep.Epoch != 1 {
			t.Errorf("partition %d: epoch=%d, want 1", p, rep.Epoch)
		}
		if err := pub.Publish(uint32(10 + i)); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if count != 2+i {
			t.Fatalf("after failover of partition %d: deliveries=%d, want %d", p, count, 2+i)
		}
	}

	// Post-failover churn still works: the promoted controllers accept new
	// subscriptions and route to them.
	extra := 0
	if err := sys.Subscribe("s2", hosts[12], NewFilter(), func(Delivery) { extra++ }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(99); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if extra != 1 {
		t.Errorf("post-failover subscription received %d, want 1", extra)
	}
}

// TestHAOptionRequired pins the gating: the HA surface is only available
// with WithJournal.
func TestHAOptionRequired(t *testing.T) {
	sch, err := NewSchema(Attribute{Name: "v", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if _, err := sys.Snapshot(0); err == nil {
		t.Error("Snapshot without WithJournal must fail")
	}
	if err := sys.Restore(0, nil); err == nil {
		t.Error("Restore without WithJournal must fail")
	}
	if _, err := sys.Failover(0); err == nil {
		t.Error("Failover without WithJournal must fail")
	}
}

// TestSnapshotRestoreRoundTripDigest is the facade-level acceptance
// check: snapshot → restore → snapshot reproduces a byte-identical
// digest.
func TestSnapshotRestoreRoundTripDigest(t *testing.T) {
	const seed = 555111
	soakDrive(t, []Option{WithJournal()}, seed, func(s *System, round int) {
		if round != 6 {
			return
		}
		p := s.Partitions()[0]
		snap, err := s.Snapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		d1, err := SnapshotDigest(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(p, snap); err != nil {
			t.Fatal(err)
		}
		snap2, err := s.Snapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := SnapshotDigest(snap2)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatal("snapshot → restore → snapshot digest changed")
		}
	})
}

// TestRestoreReplaysJournalSuffix: Restore rebuilds the partition from the
// snapshot plus the journal records past it, so it lands on the live
// controller's state — the same digest, the registrations made after the
// snapshot still there to remove, and the journal's numbering continued —
// and refuses a snapshot older than the journal's last compaction, leaving
// the live controller in place.
func TestRestoreReplaysJournalSuffix(t *testing.T) {
	sch, err := NewSchema(Attribute{Name: "v", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sch, WithJournal())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	host := sys.Hosts()[1]
	subscribe := func(id string) error {
		return sys.Subscribe(id, host, NewFilter().Range("v", 0, 99), func(Delivery) {})
	}
	digest := func() []byte {
		t.Helper()
		d, err := sys.StateDigest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	snap, err := sys.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := subscribe("s1"); err != nil {
		t.Fatal(err)
	}
	before := digest()
	if err := sys.Restore(0, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(digest(), before) {
		t.Fatal("Restore lost the journal suffix: state digest differs from the live controller's")
	}
	if err := subscribe("s2"); err != nil {
		t.Fatalf("Subscribe after Restore: %v", err)
	}
	if err := sys.Unsubscribe("s1"); err != nil {
		t.Fatalf("Unsubscribe of a registration the journal holds past the snapshot: %v", err)
	}
	if err := sys.VerifyTables(); err != nil {
		t.Fatal(err)
	}

	// A new snapshot compacts the journal past the first one.
	if _, err := sys.Snapshot(0); err != nil {
		t.Fatal(err)
	}
	live := digest()
	if err := sys.Restore(0, snap); err == nil || !strings.Contains(err.Error(), "snapshot required") {
		t.Fatalf("Restore of a snapshot older than the compaction: err = %v, want the gap refusal", err)
	}
	if !bytes.Equal(digest(), live) {
		t.Fatal("a refused Restore replaced the live controller")
	}
}

// TestSoakFailoverConvergence is the acceptance check for controller HA:
// the same seeded churn workload runs once undisturbed and once with the
// active controller of a rotating partition killed and failed over every
// round (snapshotting only every third round, so most takeovers replay a
// journal suffix). The delivery multisets must match round for round —
// controller crashes are invisible to subscribers.
func TestSoakFailoverConvergence(t *testing.T) {
	const seed = 777001
	opts := []Option{WithTopology(TopologyRing20), WithPartitions(4), WithJournal()}
	baseline := soakDrive(t, opts, seed, nil)

	epochs := make(map[int]uint32)
	failed := soakDrive(t, opts, seed, func(s *System, round int) {
		parts := s.Partitions()
		p := parts[round%len(parts)]
		if round%3 == 0 {
			if _, err := s.Snapshot(p); err != nil {
				t.Fatalf("round %d: snapshot partition %d: %v", round, p, err)
			}
		}
		rep, err := s.Failover(p)
		if err != nil {
			t.Fatalf("round %d: failover partition %d: %v", round, p, err)
		}
		if want := epochs[p] + 1; rep.Epoch != want {
			t.Errorf("round %d: partition %d epoch=%d, want %d", round, p, rep.Epoch, want)
		}
		epochs[p] = rep.Epoch
		if err := s.VerifyTables(); err != nil {
			t.Fatalf("round %d: tables diverged after failover: %v", round, err)
		}
	})

	if len(baseline) != len(failed) {
		t.Fatalf("round counts differ: baseline %d, failover %d", len(baseline), len(failed))
	}
	for round := range baseline {
		if !reflect.DeepEqual(baseline[round], failed[round]) {
			t.Errorf("round %d deliveries diverge under failover:\nbaseline: %v\nfailover: %v",
				round, baseline[round], failed[round])
		}
	}
}

// TestSystemCloseIdempotent pins the Close contract: double Close, Close
// racing Close, and Close racing in-flight publishes must all be safe.
// Run with -race.
func TestSystemCloseIdempotent(t *testing.T) {
	sch, err := NewSchema(Attribute{Name: "v", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sch, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := sys.Subscribe("s", hosts[7], NewFilter(), func(Delivery) { got++ }); err != nil {
		t.Fatal(err)
	}
	// Exercise the workers so Close has started goroutines to reap.
	for i := 0; i < 3; i++ {
		if err := pub.Publish(uint32(i)); err != nil {
			t.Fatal(err)
		}
		sys.Run()
	}
	if got != 3 {
		t.Fatalf("deliveries=%d, want 3", got)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys.Close()
		}()
	}
	wg.Wait()
	sys.Close() // and once more, sequentially

	// A never-started sharded system (workers lazily spawned) closes too.
	sys2, err := NewSystem(sch, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	sys2.Close()
	sys2.Close()

	// Single-engine systems have no coordinator; Close is a no-op.
	sys3, err := NewSystem(sch)
	if err != nil {
		t.Fatal(err)
	}
	sys3.Close()
	sys3.Close()
}

// TestFailoverHealthEndpointRace serves /healthz and /readyz from another
// goroutine — as the observability endpoint does — while the driving
// goroutine replaces every partition's controller over and over. The health
// adapter reads only the fabric's published quarantine sets and never a
// partition's controller pointer, which a takeover overwrites; under -race
// any read of a controller from the serving goroutine is reported here.
func TestFailoverHealthEndpointRace(t *testing.T) {
	sch, err := NewSchema(Attribute{Name: "v", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sch, WithTopology(TopologyRing20), WithPartitions(4), WithJournal())
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
	if err := sys.Subscribe("s", hosts[len(hosts)-1], NewFilter(), func(Delivery) {}); err != nil {
		t.Fatal(err)
	}

	h := sys.ObsHandler()
	started, stop := make(chan struct{}), make(chan struct{})
	served := make(chan error, 1)
	go func() {
		var bad error
		for i := 0; ; i++ {
			path := "/healthz"
			if i%2 == 1 {
				path = "/readyz"
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if path == "/healthz" && rec.Code != http.StatusOK && bad == nil {
				bad = fmt.Errorf("/healthz = %d with no switch quarantined", rec.Code)
			}
			if i == 1 {
				close(started)
			}
			select {
			case <-stop:
				served <- bad
				return
			default:
			}
		}
	}()
	<-started
	parts := sys.Partitions()
	for i := 0; i < 200; i++ {
		if _, err := sys.Failover(parts[i%len(parts)]); err != nil {
			close(stop)
			<-served
			t.Fatalf("failover %d: %v", i, err)
		}
	}
	close(stop)
	if err := <-served; err != nil {
		t.Error(err)
	}
	if err := sys.VerifyTables(); err != nil {
		t.Errorf("tables after 200 failovers: %v", err)
	}
}
