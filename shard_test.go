package pleroma

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"pleroma/internal/interdomain"
	"pleroma/internal/netem"
	"pleroma/internal/obs"
)

// System-level acceptance tests for the sharded parallel engine: the same
// seeded workloads driven through WithShards(1) and WithShards(n>1) must
// produce identical delivery multisets and counters, sharded runs must be
// bit-for-bit deterministic at a fixed shard count, and the coordinator's
// health metrics must surface through the facade's registry.

// testShardCount picks a multi-core shard count for equivalence tests:
// at least 2 so the parallel path actually runs, capped so CI machines
// with many cores don't shard a small topology into slivers.
func testShardCount() int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	if n > 8 {
		n = 8
	}
	return n
}

// TestShardedSoakMatchesSingleEngine is the headline equivalence check:
// the full churn soak (which already verifies every round against ground
// truth internally) run on shard workers yields the exact per-round
// delivery multisets of the single-engine run.
func TestShardedSoakMatchesSingleEngine(t *testing.T) {
	topologies := []struct {
		name string
		opts []Option
	}{
		{"testbed", nil},
		{"fattree4", []Option{WithFatTree(4, 4, 2)}},
	}
	for _, tc := range topologies {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			seed := 55000 + int64(len(tc.name))
			baseline := soakDrive(t, tc.opts, seed, nil)
			sharded := soakDrive(t,
				append([]Option{WithShards(testShardCount())}, tc.opts...),
				seed, nil)
			if len(baseline) != len(sharded) {
				t.Fatalf("round counts differ: single %d, sharded %d",
					len(baseline), len(sharded))
			}
			for round := range baseline {
				if !reflect.DeepEqual(baseline[round], sharded[round]) {
					t.Errorf("round %d deliveries diverge across shard counts:\nsingle:  %v\nsharded: %v",
						round, baseline[round], sharded[round])
				}
			}
		})
	}
}

// TestShardedFaultChurnSoak composes the two hardest layers: southbound
// fault injection with retry/quarantine/resync AND parallel shard
// execution. After each round's anti-entropy pass the faulted, sharded
// run must match the clean single-engine baseline round for round.
func TestShardedFaultChurnSoak(t *testing.T) {
	const seed = 98765
	baseline := soakDrive(t, nil, seed, nil)

	opts := []Option{
		WithShards(testShardCount()),
		WithSouthboundFaults(FaultConfig{Seed: 2, Rate: 0.03, FailCalls: []uint64{5}}),
		WithRetryPolicy(RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
			Sleep:       func(time.Duration) {}, // no wall-clock waits in tests
		}),
	}
	var sys *System
	faulted := soakDrive(t, opts, seed, func(s *System, round int) {
		sys = s
		if _, ok := s.ResyncUntilHealthy(100); !ok {
			t.Fatalf("round %d: resync did not converge (degraded=%v)",
				round, s.Degraded())
		}
		if err := s.VerifyTables(); err != nil {
			t.Fatalf("round %d: VerifyTables after resync: %v", round, err)
		}
	})

	if sys.Shards() < 2 {
		t.Fatalf("soak ran on %d shards; the parallel path was not exercised", sys.Shards())
	}
	if got := sys.FaultStats().Injected; got == 0 {
		t.Fatal("no faults injected; the soak exercised nothing")
	}
	if len(baseline) != len(faulted) {
		t.Fatalf("round counts differ: baseline %d, faulted %d",
			len(baseline), len(faulted))
	}
	for round := range baseline {
		if !reflect.DeepEqual(baseline[round], faulted[round]) {
			t.Errorf("round %d deliveries diverge under sharded faults:\nbaseline: %v\nsharded:  %v",
				round, baseline[round], faulted[round])
		}
	}
}

// shardRec is one delivery with full observable detail, for bit-for-bit
// determinism comparison.
type shardRec struct {
	sub  string
	vals [2]uint32
	at   time.Duration
	lat  time.Duration
	fp   bool
}

// shardRound is what the counter readers report after one round's Run: the
// between-runs read every data-plane counter promises to be exact.
type shardRound struct {
	stats    Stats
	overload OverloadReport
	switches []netem.SwitchStats
}

// driveShardGolden runs a fixed seeded fan-out workload — every host
// subscribed, several publishers bursting at the same instants — and
// returns the sorted delivery log, the final clock, and the counters read
// after each round.
func driveShardGolden(t *testing.T, seed int64, extra ...Option) ([]shardRec, time.Duration, []shardRound) {
	t.Helper()
	sch, err := NewSchema(
		Attribute{Name: "x", Bits: 10},
		Attribute{Name: "y", Bits: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]Option{WithFatTree(4, 4, 2), WithMaxDzLen(16)}, extra...)
	sys, err := NewSystem(sch, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	hosts := sys.Hosts()
	r := rand.New(rand.NewSource(seed))

	var mu sync.Mutex
	var recs []shardRec
	for i, h := range hosts {
		lo := uint32(r.Intn(512))
		hi := lo + uint32(r.Intn(int(1024-lo)))
		if err := sys.Subscribe(fmt.Sprintf("s%d", i), h,
			NewFilter().Range("x", lo, hi),
			func(d Delivery) {
				mu.Lock()
				recs = append(recs, shardRec{
					sub:  d.SubscriptionID,
					vals: [2]uint32{d.Event.Values[0], d.Event.Values[1]},
					at:   d.At,
					lat:  d.Latency,
					fp:   d.FalsePositive,
				})
				mu.Unlock()
			}); err != nil {
			t.Fatal(err)
		}
	}
	var pubs []*Publisher
	for i := 0; i < 4; i++ {
		pub, err := sys.NewPublisher(fmt.Sprintf("p%d", i), hosts[(i*7)%len(hosts)])
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Advertise(NewFilter()); err != nil {
			t.Fatal(err)
		}
		pubs = append(pubs, pub)
	}
	var rounds []shardRound
	for round := 0; round < 4; round++ {
		for _, pub := range pubs {
			tuples := make([][]uint32, 12)
			for j := range tuples {
				tuples[j] = []uint32{uint32(r.Intn(1024)), uint32(r.Intn(1024))}
			}
			if err := pub.PublishBatch(tuples...); err != nil {
				t.Fatal(err)
			}
		}
		sys.Run()
		rd := shardRound{stats: sys.Stats(), overload: sys.OverloadReport()}
		for _, sw := range sys.Switches() {
			rd.switches = append(rd.switches, sys.dp.SwitchStatsFor(sw))
		}
		rounds = append(rounds, rd)
	}
	end := sys.Now()
	sortShardRecs(recs)
	return recs, end, rounds
}

// sortShardRecs puts a delivery log in a canonical order.
func sortShardRecs(recs []shardRec) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.sub != b.sub {
			return a.sub < b.sub
		}
		if a.vals != b.vals {
			return a.vals[0] < b.vals[0] ||
				(a.vals[0] == b.vals[0] && a.vals[1] < b.vals[1])
		}
		if a.at != b.at {
			return a.at < b.at
		}
		return a.lat < b.lat
	})
}

// recContent is a delivery log's content multiset: timestamps stripped,
// since tied packets may permute them across shard counts (WithShards).
func recContent(recs []shardRec) map[shardRec]int {
	m := make(map[shardRec]int, len(recs))
	for _, r := range recs {
		r.at, r.lat = 0, 0
		m[r]++
	}
	return m
}

// TestShardedGoldenWorkloadEquivalence pins the acceptance criterion
// directly: WithShards(n>1) reproduces the single-engine delivery
// multiset, counters, and final clock on a seeded golden workload. The
// counters are compared round by round — Stats, OverloadReport and every
// switch's SwitchStats read after each Run — so a shard whose counts are
// lost, or summed twice, shows in the round it happens.
func TestShardedGoldenWorkloadEquivalence(t *testing.T) {
	const seed = 31337
	single, singleEnd, singleRounds := driveShardGolden(t, seed, WithShards(1))
	shard, shardEnd, shardRounds := driveShardGolden(t, seed, WithShards(testShardCount()))

	if len(single) == 0 {
		t.Fatal("golden workload delivered nothing")
	}
	if last := singleRounds[len(singleRounds)-1].stats; last.Deliveries != uint64(len(single)) {
		t.Errorf("single-engine Stats().Deliveries = %d, handlers saw %d", last.Deliveries, len(single))
	}
	for i := range singleRounds {
		if !reflect.DeepEqual(singleRounds[i], shardRounds[i]) {
			t.Errorf("round %d counters differ:\nsingle:  %+v\nsharded: %+v", i, singleRounds[i], shardRounds[i])
		}
	}
	// Compare the content multiset, not per-delivery timestamps: bursts
	// from several publishers tie for serialization slots at the same
	// simulated instant, and (as WithShards documents) the tie order may
	// permute timestamps among the tied packets across shard counts. The
	// delivered (subscription, event, false-positive) multiset and every
	// counter are invariant. The final clock is close but not pinned — a
	// tie swap can shift which packet's multicast fan-out finishes last.
	if !reflect.DeepEqual(recContent(single), recContent(shard)) {
		t.Fatalf("delivery content multisets differ (single %d recs ending %v, sharded %d recs ending %v)",
			len(single), singleEnd, len(shard), shardEnd)
	}
}

// TestShardedRunsDeterministic pins the determinism contract: at a fixed
// shard count, two runs of the same seeded workload are bit-for-bit
// identical — timestamps and all.
func TestShardedRunsDeterministic(t *testing.T) {
	const seed = 6060
	n := testShardCount()
	a, aEnd, aRounds := driveShardGolden(t, seed, WithShards(n))
	b, bEnd, bRounds := driveShardGolden(t, seed, WithShards(n))
	if aEnd != bEnd {
		t.Errorf("final clocks differ across identical runs: %v vs %v", aEnd, bEnd)
	}
	if !reflect.DeepEqual(aRounds, bRounds) {
		t.Errorf("counters differ across identical runs:\n%+v\n%+v", aRounds, bRounds)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sharded run is not deterministic at %d shards", n)
	}
}

// TestShardedMetricsExported pins the observability wiring end to end:
// shard-health families appear in the facade's snapshot with sane values
// after a sharded run, and never appear on a single-engine system.
func TestShardedMetricsExported(t *testing.T) {
	find := func(snap MetricsSnapshot, name string) ([]obs.Sample, bool) {
		for _, f := range snap.Families {
			if f.Name == name {
				return f.Samples, true
			}
		}
		return nil, false
	}

	sch, err := NewSchema(Attribute{Name: "x", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sch,
		WithFatTree(4, 4, 2), WithShards(4), WithObservability(64))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	hosts := sys.Hosts()
	for i, h := range hosts {
		if err := sys.Subscribe(fmt.Sprintf("s%d", i), h, NewFilter(),
			func(Delivery) {}); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	tuples := make([][]uint32, 64)
	for i := range tuples {
		tuples[i] = []uint32{uint32(i * 16)}
	}
	if err := pub.PublishBatch(tuples...); err != nil {
		t.Fatal(err)
	}
	end := sys.Run()

	snap := sys.Metrics()
	if s, ok := find(snap, obs.MShardWindows); !ok || len(s) == 0 || s[0].Value < 1 {
		t.Errorf("%s missing or zero after a sharded run: %v", obs.MShardWindows, s)
	}
	if s, ok := find(snap, obs.MShardCrossMessages); !ok || len(s) == 0 || s[0].Value < 1 {
		t.Errorf("%s missing or zero: a one-to-all fan-out must cross shards: %v",
			obs.MShardCrossMessages, s)
	}
	if s, ok := find(snap, obs.MShardHorizon); !ok || len(s) == 0 || s[0].Value < float64(end) {
		t.Errorf("%s = %v, want >= final clock %d", obs.MShardHorizon, s, end)
	}
	if s, ok := find(snap, obs.MShardQueueDepth); !ok || len(s) != sys.Shards() {
		t.Errorf("%s has %d samples, want one per shard (%d)",
			obs.MShardQueueDepth, len(s), sys.Shards())
	} else {
		for _, smp := range s {
			if smp.Value != 0 {
				t.Errorf("shard %s queue depth %v after full drain, want 0",
					smp.LabelValue, smp.Value)
			}
		}
	}
	if _, ok := find(snap, obs.MShardMailbox); !ok {
		t.Errorf("%s family missing", obs.MShardMailbox)
	}
	if _, ok := find(snap, obs.MShardStalls); !ok {
		t.Errorf("%s family missing", obs.MShardStalls)
	}

	// A single-engine system must not export shard families at all.
	solo, err := NewSystem(sch, WithObservability(64))
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	for _, name := range []string{obs.MShardWindows, obs.MShardCrossMessages, obs.MShardQueueDepth} {
		if _, ok := find(solo.Metrics(), name); ok {
			t.Errorf("single-engine system exports %s", name)
		}
	}
}

// TestWithShardsGuards covers the construction-time contract: clamping
// to the switch count.
func TestWithShardsGuards(t *testing.T) {
	sch, err := NewSchema(Attribute{Name: "x", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}

	// WithFatTree(4,4,2) has 4 core + 4*(2+2) pod switches = 20.
	sys, err := NewSystem(sch, WithFatTree(4, 4, 2), WithShards(64))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if got := sys.Shards(); got != 20 {
		t.Errorf("Shards() = %d after WithShards(64) on 20 switches, want 20", got)
	}

	solo, err := NewSystem(sch, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if got := solo.Shards(); got != 1 {
		t.Errorf("Shards() = %d for WithShards(1), want 1", got)
	}
}

// roundLog records a run's deliveries round by round; handlers may run on
// shard workers, hence the lock.
type roundLog struct {
	mu     sync.Mutex
	cur    []shardRec
	rounds [][]shardRec
}

func (l *roundLog) deliver(d Delivery) {
	l.mu.Lock()
	l.cur = append(l.cur, shardRec{
		sub:  d.SubscriptionID,
		vals: [2]uint32{d.Event.Values[0], d.Event.Values[1]},
		at:   d.At,
		lat:  d.Latency,
		fp:   d.FalsePositive,
	})
	l.mu.Unlock()
}

// endRound closes the round a Run has just drained.
func (l *roundLog) endRound() {
	sortShardRecs(l.cur)
	l.rounds = append(l.rounds, l.cur)
	l.cur = nil
}

// controlRun is what a run with control work on the simulated clock
// leaves behind: its deliveries, in-band counters, controller state and
// re-index rounds.
type controlRun struct {
	shards  int
	rounds  [][]shardRec
	signals interdomain.SignalStats
	digest  []byte
	reindex int
}

func finishControlRun(t *testing.T, sys *System, log *roundLog) controlRun {
	t.Helper()
	digest, err := sys.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	return controlRun{shards: sys.Shards(), rounds: log.rounds, signals: sys.fab.SignalStats(),
		digest: digest, reindex: sys.ReindexRounds()}
}

// compareControlRuns requires a sharded run to match the single-engine
// one — the per-round delivery multisets, in-band counters, StateDigest
// and re-index rounds — and a second sharded run to repeat the first bit
// for bit, timestamps included.
func compareControlRuns(t *testing.T, single, sharded, again controlRun) {
	t.Helper()
	if single.shards != 1 || sharded.shards < 2 {
		t.Fatalf("ran on %d and %d shards; the parallel path was not exercised", single.shards, sharded.shards)
	}
	if len(single.rounds) != len(sharded.rounds) {
		t.Fatalf("round counts differ: single %d, sharded %d", len(single.rounds), len(sharded.rounds))
	}
	delivered := 0
	for i := range single.rounds {
		delivered += len(single.rounds[i])
		if !reflect.DeepEqual(recContent(single.rounds[i]), recContent(sharded.rounds[i])) {
			t.Errorf("round %d deliveries diverge across shard counts:\nsingle:  %v\nsharded: %v",
				i, single.rounds[i], sharded.rounds[i])
		}
	}
	if delivered == 0 {
		t.Error("the workload delivered nothing")
	}
	if single.signals != sharded.signals {
		t.Errorf("SignalStats: single %+v, sharded %+v", single.signals, sharded.signals)
	}
	if !bytes.Equal(single.digest, sharded.digest) {
		t.Error("StateDigest differs across shard counts")
	}
	if single.reindex != sharded.reindex {
		t.Errorf("ReindexRounds: single %d, sharded %d", single.reindex, sharded.reindex)
	}
	if !reflect.DeepEqual(sharded, again) {
		t.Errorf("sharded run is not repeatable at %d shards", sharded.shards)
	}
}

// TestShardedInBandMatchesSingleEngine runs the in-band golden workload
// (TestForwardingGoldenFatTreeInBand): every control request travels as an
// IP_vir packet, its punt reaches the fabric through the control engine,
// and its Apply runs there with every shard idle. At the golden's 200µs
// processing delay the 20µs links set the lookahead; at 7µs the delay
// caps it.
func TestShardedInBandMatchesSingleEngine(t *testing.T) {
	for _, delay := range []time.Duration{200 * time.Microsecond, 7 * time.Microsecond} {
		t.Run(delay.String(), func(t *testing.T) {
			run := func(shards int) controlRun {
				log := &roundLog{}
				sys := driveForwarding(t, 7003, log.deliver, func(int, *System) { log.endRound() },
					WithTopology(TopologyFatTree20), WithInBandSignalling(delay), WithShards(shards))
				t.Cleanup(sys.Close)
				if sys.coord != nil && sys.coord.Lookahead() >= delay {
					// A punt at t applies at t + delay: a window reaching that
					// far could run shard events the request should precede.
					t.Fatalf("lookahead %v not below the processing delay %v", sys.coord.Lookahead(), delay)
				}
				return finishControlRun(t, sys, log)
			}
			single := run(1)
			if single.signals.Handled == 0 {
				t.Fatal("no in-band request was handled")
			}
			compareControlRuns(t, single, run(4), run(4))
		})
	}
}

// TestShardedAutoReindexMatchesSingleEngine runs the TestAutoReindex
// scenario, with a subscriber on every host: the re-index timer is a
// control event, and the re-index it runs sees every shard idle.
func TestShardedAutoReindexMatchesSingleEngine(t *testing.T) {
	run := func(shards int) controlRun {
		sch, err := NewSchema(
			Attribute{Name: "hot", Bits: 10},
			Attribute{Name: "cold", Bits: 10},
		)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(sch, WithMaxDzLen(8),
			WithAutoReindex(time.Millisecond, 0.8), WithShards(shards))
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
		log := &roundLog{}
		for i, h := range hosts {
			lo := uint32(i * 100)
			if err := sys.Subscribe(fmt.Sprintf("s%d", i), h,
				NewFilter().Range("hot", lo, lo+200), log.deliver); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 3; round++ {
			for i := 0; i < 60; i++ {
				if err := pub.Publish(uint32((i*61)%1024), 512); err != nil {
					t.Fatal(err)
				}
			}
			sys.Run() // drains traffic AND the pending reindex timer
			log.endRound()
		}
		for _, hot := range []uint32{150, 900} {
			if err := pub.Publish(hot, 512); err != nil {
				t.Fatal(err)
			}
		}
		sys.Run()
		log.endRound()
		return finishControlRun(t, sys, log)
	}
	single := run(1)
	if single.reindex == 0 {
		t.Fatal("auto reindex never ran")
	}
	compareControlRuns(t, single, run(4), run(4))
}
