package netem

import (
	"errors"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/topo"
)

func newFaultTestDP(t *testing.T) (*DataPlane, topo.NodeID) {
	t.Helper()
	g, err := topo.Linear(3, topo.DefaultLinkParams)
	if err != nil {
		t.Fatal(err)
	}
	return New(g, sim.NewEngine()), g.Switches()[0]
}

func faultTestFlow(t *testing.T, expr string) openflow.Flow {
	t.Helper()
	f, err := openflow.NewFlow(dz.Expr(expr), len(expr), openflow.Action{OutPort: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// addOne ships one add as a one-op batch — the only shape a single FlowMod
// has on the southbound surface.
func addOne(p interface {
	ApplyBatch(topo.NodeID, []openflow.FlowOp, []openflow.FlowID) ([]openflow.FlowID, error)
}, sw topo.NodeID, f openflow.Flow) (openflow.FlowID, error) {
	ids, err := p.ApplyBatch(sw, []openflow.FlowOp{openflow.AddOp(f)}, nil)
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

func TestScriptedFaultIsTransientSwitchDown(t *testing.T) {
	dp, sw := newFaultTestDP(t)
	fp := WithFaults(dp, FaultConfig{FailCalls: []uint64{1}})
	_, err := addOne(fp, sw, faultTestFlow(t, "1"))
	if err == nil {
		t.Fatal("scripted call 1 must fail")
	}
	var inj *InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("err=%T %v, want *InjectedError", err, err)
	}
	if !inj.Transient() {
		t.Error("injected switch-down must classify transient")
	}
	if !errors.Is(err, ErrSwitchDown) {
		t.Errorf("err=%v, want wrapped ErrSwitchDown", err)
	}
	// The fault never reached the real table.
	flows, err := dp.Flows(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 0 {
		t.Errorf("table has %d flows, want 0", len(flows))
	}
	// Unscripted call 2 succeeds.
	if _, err := addOne(fp, sw, faultTestFlow(t, "1")); err != nil {
		t.Fatalf("call 2: %v", err)
	}
	st := fp.Stats()
	if st.Calls != 2 || st.Injected != 1 || st.SwitchDowns != 1 {
		t.Errorf("stats=%+v, want 2 calls, 1 injected switch-down", st)
	}
}

func TestTableFullBurst(t *testing.T) {
	dp, sw := newFaultTestDP(t)
	fp := WithFaults(dp, FaultConfig{FailCalls: []uint64{1}, TableFullEvery: 1})
	_, err := addOne(fp, sw, faultTestFlow(t, "1"))
	if !errors.Is(err, openflow.ErrTableFull) {
		t.Fatalf("err=%v, want wrapped ErrTableFull", err)
	}
	var inj *InjectedError
	if !errors.As(err, &inj) || !inj.Transient() {
		t.Errorf("err=%v, want transient injected error", err)
	}
	if st := fp.Stats(); st.TableFull != 1 {
		t.Errorf("stats=%+v, want 1 table-full burst", st)
	}
}

func TestDownWindowExpires(t *testing.T) {
	dp, sw := newFaultTestDP(t)
	fp := WithFaults(dp, FaultConfig{FailCalls: []uint64{1}, DownCalls: 2})
	if _, err := addOne(fp, sw, faultTestFlow(t, "1")); err == nil {
		t.Fatal("scripted fault must fire")
	}
	// The window keeps the switch down for the next two calls.
	for i := 0; i < 2; i++ {
		if _, err := addOne(fp, sw, faultTestFlow(t, "1")); !errors.Is(err, ErrSwitchDown) {
			t.Fatalf("call %d during window: err=%v, want ErrSwitchDown", i+2, err)
		}
	}
	// Then it recovers on its own.
	if _, err := addOne(fp, sw, faultTestFlow(t, "1")); err != nil {
		t.Fatalf("call after window: %v", err)
	}
}

func TestHealClosesDownWindow(t *testing.T) {
	dp, sw := newFaultTestDP(t)
	fp := WithFaults(dp, FaultConfig{FailCalls: []uint64{1}, DownCalls: 1 << 30})
	if _, err := addOne(fp, sw, faultTestFlow(t, "1")); err == nil {
		t.Fatal("scripted fault must fire")
	}
	if _, err := addOne(fp, sw, faultTestFlow(t, "1")); err == nil {
		t.Fatal("window must hold")
	}
	fp.Heal()
	if _, err := addOne(fp, sw, faultTestFlow(t, "1")); err != nil {
		t.Fatalf("call after Heal: %v", err)
	}
}

func TestBatchFaultAppliesPrefix(t *testing.T) {
	dp, sw := newFaultTestDP(t)
	fp := WithFaults(dp, FaultConfig{})
	ops := []openflow.FlowOp{
		openflow.AddOp(faultTestFlow(t, "00")),
		openflow.AddOp(faultTestFlow(t, "10")),
		openflow.AddOp(faultTestFlow(t, "110")),
	}
	fp.FailNextBatch(2)
	ids, err := fp.ApplyBatch(sw, ops, nil)
	if err == nil {
		t.Fatal("armed batch fault must fire")
	}
	if len(ids) != 2 {
		t.Fatalf("acked %d ops, want 2", len(ids))
	}
	// The emulated table really holds exactly the acknowledged prefix.
	flows, err := fp.Flows(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 {
		t.Errorf("table has %d flows, want 2", len(flows))
	}
	// Disarmed afterwards: the remainder applies cleanly.
	if _, err := fp.ApplyBatch(sw, ops[2:], nil); err != nil {
		t.Fatalf("second batch: %v", err)
	}
	// A one-op batch is cut the same way: armed at 0, the single FlowMod
	// fails before the table sees it.
	fp.FailNextBatch(0)
	if _, err := addOne(fp, sw, faultTestFlow(t, "111")); !errors.Is(err, ErrSwitchDown) {
		t.Fatalf("armed one-op batch: err=%v, want ErrSwitchDown", err)
	}
	if flows, _ := fp.Flows(sw); len(flows) != 3 {
		t.Errorf("table has %d flows after the failed one-op batch, want 3", len(flows))
	}
}

func TestRandomFaultsAreSeededDeterministic(t *testing.T) {
	outcomes := func() []bool {
		dp, sw := newFaultTestDP(t)
		fp := WithFaults(dp, FaultConfig{Seed: 7, Rate: 0.3})
		var out []bool
		for i := 0; i < 64; i++ {
			_, err := addOne(fp, sw, faultTestFlow(t, "1"))
			out = append(out, err == nil)
		}
		return out
	}
	a, b := outcomes(), outcomes()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs across identically seeded runs", i)
		}
	}
	fails := 0
	for _, ok := range a {
		if !ok {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Errorf("fails=%d of %d, want a mix at rate 0.3", fails, len(a))
	}
}
