package core_test

import (
	"errors"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/topo"
)

// newFaultyController wires a controller to the data plane through a
// netem fault-injection layer.
func newFaultyController(t *testing.T, cfg netem.FaultConfig, opts ...core.Option) (*core.Controller, *topo.Graph, *netem.FaultyProgrammer) {
	t.Helper()
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	dp := netem.New(g, sim.NewEngine())
	faulty := netem.WithFaults(dp, cfg)
	opts = append([]core.Option{
		core.WithHostAddr(netem.HostAddr),
	}, opts...)
	ctl, err := core.NewController(g, faulty, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ctl, g, faulty
}

// TestMidBatchFaultRecordsAckedPrefix is the end-to-end divergence story:
// a bundle fails mid-batch, the controller records exactly the
// acknowledged prefix, VerifyTables flags the divergence from the
// canonical state, and a resync pass repairs the switch back to
// incremental ≡ canonical.
func TestMidBatchFaultRecordsAckedPrefix(t *testing.T) {
	ctl, g, faulty := newFaultyController(t, netem.FaultConfig{})
	hosts := g.Hosts()
	// Three disjoint subspaces → three adds per switch in one bundle.
	set := dz.NewSet("00", "10", "110")
	if _, err := ctl.Advertise("p", hosts[0], set); err != nil {
		t.Fatal(err)
	}
	// Fail the next bundle after exactly one acknowledged op. The default
	// (zero) retry policy makes one attempt, so the transient fault
	// quarantines the switch instead of failing the subscription.
	faulty.FailNextBatch(1)
	rep, err := ctl.Subscribe("s", hosts[5], set)
	if err != nil {
		t.Fatalf("transient fault must not fail the control op: %v", err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("Quarantined=%d, want 1", rep.Quarantined)
	}
	deg := ctl.DegradedSet().Switches()
	if len(deg) != 1 {
		t.Fatalf("degraded=%v, want one switch", deg)
	}
	sw := deg[0].Sw
	if !errors.Is(deg[0].Err, netem.ErrSwitchDown) {
		t.Errorf("degraded err=%v, want wrapped ErrSwitchDown", deg[0].Err)
	}

	// Exactly the acknowledged prefix is recorded: the bundle ships in
	// sorted expression order, so the one acked op is the first expr.
	got := ctl.InstalledFlowsOn(sw)
	if len(got) != 1 || got[0] != dz.Expr("00") {
		t.Fatalf("InstalledFlowsOn(%d)=%v, want [00]", sw, got)
	}

	// The divergence from the canonical table is detectable.
	if err := ctl.VerifyTables(); err == nil {
		t.Fatal("VerifyTables must flag the degraded switch")
	}

	// The anti-entropy pass repairs the switch with the two missing adds
	// and heals the quarantine.
	rr, err := ctl.ResyncAll()
	if err != nil {
		t.Fatalf("ResyncAll: %v", err)
	}
	if rr.FlowAdds != 2 {
		t.Errorf("resync FlowAdds=%d, want 2", rr.FlowAdds)
	}
	if rr.Healed != 1 {
		t.Errorf("resync Healed=%d, want 1", rr.Healed)
	}
	if len(rr.StillDegraded) != 0 {
		t.Errorf("StillDegraded=%v, want none", rr.StillDegraded)
	}
	if d := ctl.DegradedSet().Switches(); len(d) != 0 {
		t.Errorf("degraded after resync=%v, want none", d)
	}
	if err := ctl.VerifyTables(); err != nil {
		t.Errorf("VerifyTables after resync: %v", err)
	}
	st := ctl.Stats()
	if st.Quarantines != 1 || st.RepairedFlows != 2 {
		t.Errorf("stats Quarantines=%d RepairedFlows=%d, want 1 and 2", st.Quarantines, st.RepairedFlows)
	}
}

// TestTransientFaultRetriesAndSucceeds exercises the happy retry path: a
// scripted fault hits the first southbound call, the retry succeeds, and
// nothing is quarantined.
func TestTransientFaultRetriesAndSucceeds(t *testing.T) {
	var sleeps []time.Duration
	pol := core.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	ctl, g, _ := newFaultyController(t,
		netem.FaultConfig{FailCalls: []uint64{1}},
		core.WithRetryPolicy(pol))
	hosts := g.Hosts()
	if _, err := ctl.Advertise("p", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Subscribe("s", hosts[5], dz.NewSet("1"))
	if err != nil {
		t.Fatalf("retry must absorb the transient fault: %v", err)
	}
	if rep.Retries == 0 {
		t.Error("report must count the retry")
	}
	if rep.Quarantined != 0 {
		t.Errorf("Quarantined=%d, want 0", rep.Quarantined)
	}
	if len(sleeps) == 0 || sleeps[0] != time.Millisecond {
		t.Errorf("sleeps=%v, want first backoff of 1ms", sleeps)
	}
	if d := ctl.DegradedSet().Switches(); len(d) != 0 {
		t.Errorf("degraded=%v, want none", d)
	}
	if err := ctl.VerifyTables(); err != nil {
		t.Errorf("VerifyTables: %v", err)
	}
	if st := ctl.Stats(); st.Retries == 0 {
		t.Error("lifetime stats must count the retry")
	}
}

// TestBackoffCapAndDeadline pins the backoff schedule: exponential from
// BaseBackoff, capped at MaxBackoff, cut off by OpDeadline.
func TestBackoffCapAndDeadline(t *testing.T) {
	var sleeps []time.Duration
	pol := core.RetryPolicy{
		MaxAttempts: 10,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		OpDeadline:  12 * time.Millisecond,
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	// A switch-down window longer than any retry budget keeps every
	// attempt failing.
	ctl, g, _ := newFaultyController(t,
		netem.FaultConfig{FailCalls: []uint64{1}, DownCalls: 1 << 30},
		core.WithRetryPolicy(pol))
	hosts := g.Hosts()
	if _, err := ctl.Advertise("p", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Subscribe("s", hosts[5], dz.NewSet("1"))
	if err != nil {
		t.Fatalf("exhausted transient retries must quarantine, not fail: %v", err)
	}
	if rep.Quarantined == 0 {
		t.Error("switch must be quarantined after the deadline")
	}
	// 2ms, then 4ms (cumulative 6), then 5ms capped (cumulative 11 ≤ 12);
	// the next 5ms wait would exceed the 12ms deadline, so retrying stops.
	want := []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 5 * time.Millisecond}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps=%v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Errorf("sleep[%d]=%v, want %v", i, sleeps[i], want[i])
		}
	}
}

// TestRetryPolicyBackoff pins the one backoff function the controller's
// flush and the transport's call and redial loops share.
func TestRetryPolicyBackoff(t *testing.T) {
	const ms = time.Millisecond
	capped := core.RetryPolicy{BaseBackoff: 2 * ms, MaxBackoff: 100 * ms}
	uncapped := core.RetryPolicy{BaseBackoff: 2 * ms}
	for _, tc := range []struct {
		name string
		pol  core.RetryPolicy
		n    int
		want time.Duration
	}{
		{"first retry waits the base", capped, 0, 2 * ms},
		{"doubles", capped, 1, 4 * ms},
		{"last step below the cap", capped, 5, 64 * ms},
		{"cap reached", capped, 6, 100 * ms},
		{"stays at the cap", capped, 100, 100 * ms},
		{"base above the cap", core.RetryPolicy{BaseBackoff: 7 * ms, MaxBackoff: 5 * ms}, 0, 5 * ms},
		{"0 = uncapped keeps growing", uncapped, 10, 2048 * ms},
		{"uncapped saturates instead of overflowing", uncapped, 100, math.MaxInt64},
		{"zero policy never waits", core.RetryPolicy{}, 100, 0},
	} {
		if got := tc.pol.Backoff(tc.n); got != tc.want {
			t.Errorf("%s: Backoff(%d)=%v, want %v", tc.name, tc.n, got, tc.want)
		}
	}
	// The default policy, whatever the attempt number, waits a positive
	// time no longer than its cap (the shift it replaces went ≤ 0 at 43).
	for n := 0; n <= 100; n++ {
		if d := core.DefaultRetryPolicy.Backoff(n); d <= 0 || d > core.DefaultRetryPolicy.MaxBackoff {
			t.Fatalf("DefaultRetryPolicy.Backoff(%d)=%v, want in (0, %v]", n, d, core.DefaultRetryPolicy.MaxBackoff)
		}
	}
}

// permProgrammer fails every batch addressed to a switch bad selects with
// a permanent (non-transient) error; the others reach the data plane.
type permProgrammer struct {
	*netem.DataPlane
	bad func(topo.NodeID) bool
	err error
}

func (p *permProgrammer) ApplyBatch(sw topo.NodeID, ops []openflow.FlowOp, ids []openflow.FlowID) ([]openflow.FlowID, error) {
	if p.bad(sw) {
		return ids, p.err
	}
	return p.DataPlane.ApplyBatch(sw, ops, ids)
}

// TestPermanentErrorSurfacesTyped checks the taxonomy split: permanent
// errors fail the control operation immediately as a *SouthboundError and
// never quarantine.
func TestPermanentErrorSurfacesTyped(t *testing.T) {
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	base := errors.New("switch decommissioned")
	prog := &permProgrammer{
		DataPlane: netem.New(g, sim.NewEngine()),
		bad:       func(topo.NodeID) bool { return true },
		err:       base,
	}
	ctl, err := core.NewController(g, prog,
		core.WithHostAddr(netem.HostAddr),
		core.WithRetryPolicy(core.RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}}))
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	if _, err := ctl.Advertise("p", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	_, err = ctl.Subscribe("s", hosts[5], dz.NewSet("1"))
	if err == nil {
		t.Fatal("permanent southbound failure must surface")
	}
	var serr *core.SouthboundError
	if !errors.As(err, &serr) {
		t.Fatalf("err=%T %v, want *core.SouthboundError", err, err)
	}
	if serr.Transient {
		t.Error("permanent error classified transient")
	}
	if serr.Attempts != 1 {
		t.Errorf("Attempts=%d, want 1 (no retry for permanent errors)", serr.Attempts)
	}
	if !errors.Is(err, base) {
		t.Errorf("err=%v, want wrapped cause", err)
	}
	if !strings.Contains(err.Error(), "add flow") {
		t.Errorf("error lacks op context: %v", err)
	}
	if d := ctl.DegradedSet().Switches(); len(d) != 0 {
		t.Errorf("degraded=%v, permanent errors must not quarantine", d)
	}
}

// TestRefreshStopsAtFirstPermanentError pins the one programming rule: the
// touched switches are programmed in ascending order and the first
// permanent error ends the operation — lower-numbered switches hold their
// flows, higher ones were never called, the error names the failing switch,
// and a resync pass converges the rest. The outcome may not depend on how
// many CPUs the process has.
func TestRefreshStopsAtFirstPermanentError(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run("GOMAXPROCS="+strconv.Itoa(procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
			if err != nil {
				t.Fatal(err)
			}
			dp := netem.New(g, sim.NewEngine())
			var failing topo.NodeID
			healthy := false
			prog := &permProgrammer{
				DataPlane: dp,
				bad:       func(sw topo.NodeID) bool { return !healthy && sw == failing },
				err:       errors.New("switch decommissioned"),
			}
			ctl, err := core.NewController(g, prog, core.WithHostAddr(netem.HostAddr))
			if err != nil {
				t.Fatal(err)
			}
			hosts := g.Hosts()
			if _, err := ctl.Advertise("p", hosts[0], dz.NewSet("1")); err != nil {
				t.Fatal(err)
			}
			// A healthy first path tells which switches the far path will
			// touch; tear it down again and fail the middle one.
			healthy = true
			if _, err := ctl.Subscribe("probe", hosts[7], dz.NewSet("1")); err != nil {
				t.Fatal(err)
			}
			var path []topo.NodeID
			for _, sw := range g.Switches() {
				if len(ctl.InstalledFlowsOn(sw)) > 0 {
					path = append(path, sw)
				}
			}
			if _, err := ctl.Unsubscribe("probe"); err != nil {
				t.Fatal(err)
			}
			if len(path) < 3 {
				t.Fatalf("path %v too short to have a middle switch", path)
			}
			failing, healthy = path[len(path)/2], false

			_, err = ctl.Subscribe("s", hosts[7], dz.NewSet("1"))
			var serr *core.SouthboundError
			if !errors.As(err, &serr) || serr.Sw != failing {
				t.Fatalf("err=%v, want *core.SouthboundError on switch %d", err, failing)
			}
			for _, sw := range path {
				flows, err := dp.Flows(sw)
				if err != nil {
					t.Fatal(err)
				}
				if want := sw < failing; (len(flows) > 0) != want {
					t.Errorf("switch %d (failing %d): %d flows, programmed must be %v", sw, failing, len(flows), want)
				}
			}
			if err := ctl.VerifyTables(); err == nil {
				t.Error("VerifyTables must flag the unprogrammed switches")
			}

			healthy = true
			if _, err := ctl.ResyncAll(); err != nil {
				t.Fatalf("ResyncAll: %v", err)
			}
			if err := ctl.VerifyTables(); err != nil {
				t.Errorf("VerifyTables after resync: %v", err)
			}
		})
	}
}

// TestQuarantineHealLifecycle drives a switch through the full
// degradation lifecycle: down window → quarantine (control ops keep
// succeeding) → resync under the open window stays degraded → Heal +
// resync recovers.
func TestQuarantineHealLifecycle(t *testing.T) {
	ctl, g, faulty := newFaultyController(t,
		netem.FaultConfig{FailCalls: []uint64{2}, DownCalls: 1 << 30})
	hosts := g.Hosts()
	if _, err := ctl.Advertise("p", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Subscribe("s1", hosts[5], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	deg := ctl.DegradedSet().Switches()
	if len(deg) != 1 {
		t.Fatalf("degraded=%v, want one switch", deg)
	}

	// While the switch is down, resync cannot repair it: the pass reports
	// it as still degraded but does not error (transient exhaustion).
	rr, err := ctl.ResyncAll()
	if err != nil {
		t.Fatalf("resync under open down-window must stay best-effort: %v", err)
	}
	if len(rr.StillDegraded) != 1 || rr.Healed != 0 {
		t.Fatalf("report=%+v, want the switch still degraded", rr)
	}

	// Control operations keep succeeding while the switch is degraded.
	if _, err := ctl.Subscribe("s2", hosts[7], dz.NewSet("1")); err != nil {
		t.Fatalf("control op on degraded deployment: %v", err)
	}

	// Heal the emulated switch; the next pass repairs and clears it.
	faulty.Heal()
	rr, err = ctl.ResyncAll()
	if err != nil {
		t.Fatalf("ResyncAll after heal: %v", err)
	}
	if rr.Healed == 0 || len(rr.StillDegraded) != 0 {
		t.Fatalf("report=%+v, want healed", rr)
	}
	if d := ctl.DegradedSet().Switches(); len(d) != 0 {
		t.Errorf("degraded=%v, want none", d)
	}
	if err := ctl.VerifyTables(); err != nil {
		t.Errorf("VerifyTables after heal: %v", err)
	}
}

// TestResyncRemovesStrayFlows covers the delete direction of the
// anti-entropy diff: flows present on the switch but absent from the
// canonical state (e.g. leftovers of a lost delete) are removed.
func TestResyncRemovesStrayFlows(t *testing.T) {
	ctl, g, faulty := newFaultyController(t, netem.FaultConfig{})
	hosts := g.Hosts()
	if _, err := ctl.Advertise("p", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Subscribe("s", hosts[5], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	// Unsubscribe with a mid-batch fault: some deletes are lost, leaving
	// stray flows on a quarantined switch.
	faulty.FailNextBatch(0)
	if _, err := ctl.Unsubscribe("s"); err != nil {
		t.Fatalf("transient delete fault must not fail the op: %v", err)
	}
	deg := ctl.DegradedSet().Switches()
	if len(deg) != 1 {
		t.Fatalf("degraded=%v, want one switch", deg)
	}
	if err := ctl.VerifyTables(); err == nil {
		t.Fatal("stray flows must be detectable")
	}
	rr, err := ctl.ResyncAll()
	if err != nil {
		t.Fatalf("ResyncAll: %v", err)
	}
	if rr.FlowDeletes == 0 {
		t.Errorf("report=%+v, want stray flows deleted", rr)
	}
	if err := ctl.VerifyTables(); err != nil {
		t.Errorf("VerifyTables after resync: %v", err)
	}
}

// TestResyncConcurrentReaders checks the one controller read another
// goroutine may make: DegradedSet().Switches() (the health endpoint's poll) while
// the owner quarantines switches and resync passes heal them.
func TestResyncConcurrentReaders(t *testing.T) {
	ctl, g, faulty := newFaultyController(t, netem.FaultConfig{})
	hosts := g.Hosts()
	if _, err := ctl.Advertise("p", hosts[0], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Subscribe("s", hosts[5], dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = ctl.DegradedSet().Switches()
			}
		}
	}()
	for i := 0; i < 20; i++ {
		faulty.FailNextBatch(0)
		if _, err := ctl.Unsubscribe("s"); err != nil {
			t.Errorf("unsubscribe: %v", err)
		}
		if _, err := ctl.ResyncAll(); err != nil {
			t.Errorf("resync: %v", err)
		}
		if _, err := ctl.Subscribe("s", hosts[5], dz.NewSet("1")); err != nil {
			t.Errorf("subscribe: %v", err)
		}
		if _, err := ctl.ResyncAll(); err != nil {
			t.Errorf("resync: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if err := ctl.VerifyTables(); err != nil {
		t.Errorf("VerifyTables: %v", err)
	}
}
