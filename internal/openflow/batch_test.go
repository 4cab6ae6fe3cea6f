package openflow

import (
	"errors"
	"reflect"
	"testing"

	"pleroma/internal/ipmc"
)

func TestApplyBatchInOrder(t *testing.T) {
	tab := NewTable()
	keep := tab.Add(mustFlow(t, "0", 1, 1))
	ops := []FlowOp{
		AddOp(mustFlow(t, "1", 1, 2)),
		AddOp(mustFlow(t, "10", 2, 3)),
		ModifyOp(keep, 1, []Action{{OutPort: 4}}),
		DeleteOp(keep),
	}
	applied, err := tab.AppendBatch(nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != len(ops) {
		t.Fatalf("applied=%d ids, want %d", len(applied), len(ops))
	}
	// Adds report their assigned ids; deletes/modifies report zero.
	if applied[0] == 0 || applied[1] == 0 || applied[2] != 0 || applied[3] != 0 {
		t.Errorf("applied=%v", applied)
	}
	if tab.Len() != 2 {
		t.Errorf("Len=%d, want 2", tab.Len())
	}
	st := tab.Stats()
	if st.Batches != 1 {
		t.Errorf("Batches=%d, want 1", st.Batches)
	}
	if st.Adds != 3 || st.Deletes != 1 || st.Mods != 1 {
		t.Errorf("stats=%+v", st)
	}
}

func TestApplyBatchStopsAtFirstFailure(t *testing.T) {
	tab := NewTable()
	tab.SetCapacity(2)
	ops := []FlowOp{
		AddOp(mustFlow(t, "0", 1, 1)),
		AddOp(mustFlow(t, "1", 1, 2)),
		AddOp(mustFlow(t, "10", 2, 3)), // exceeds capacity
		AddOp(mustFlow(t, "11", 2, 4)), // never attempted
	}
	applied, err := tab.AppendBatch(nil, ops)
	if err == nil {
		t.Fatal("over-capacity batch must fail")
	}
	if !errors.Is(err, ErrTableFull) {
		t.Errorf("err=%v, want wrapped ErrTableFull", err)
	}
	// Prefix semantics: exactly the ops before the failure took effect.
	if len(applied) != 2 {
		t.Fatalf("applied=%v, want the 2-op prefix", applied)
	}
	if tab.Len() != 2 {
		t.Errorf("Len=%d, want 2", tab.Len())
	}
}

func TestApplyBatchUnknownTargets(t *testing.T) {
	tab := NewTable()
	if _, err := tab.AppendBatch(nil, []FlowOp{DeleteOp(99)}); err == nil {
		t.Error("deleting unknown id must fail")
	}
	if _, err := tab.AppendBatch(nil, []FlowOp{ModifyOp(99, 0, nil)}); err == nil {
		t.Error("modifying unknown id must fail")
	}
	if _, err := tab.AppendBatch(nil, []FlowOp{{Kind: OpKind(42)}}); err == nil {
		t.Error("unknown op kind must fail")
	}
}

// TestLookupKeyHeldActionsNeverWritten pins the aliasing contract the
// forwarding path relies on: LookupKey hands out the winner's action list by
// reference, and in single-engine mode a punt handler runs inline and may
// Modify, batch-modify, Delete or Add the table's flows while a hop still
// holds a list it looked up. No write may reach a list once handed out.
func TestLookupKeyHeldActionsNeverWritten(t *testing.T) {
	tab := NewTable()
	ev, err := ipmc.EventAddr("1111")
	if err != nil {
		t.Fatal(err)
	}
	key, _ := ipmc.KeyFromAddr(ev)
	first, err := tab.TryAdd(mustFlow(t, "1", 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	second, err := tab.TryAdd(mustFlow(t, "1", 1, 3)) // same bucket, loses the tie
	if err != nil {
		t.Fatal(err)
	}

	type heldList struct{ held, want []Action }
	var lists []heldList
	hold := func(wantFirst PortID) {
		t.Helper()
		got, ok := tab.LookupKey(key)
		if !ok || len(got) == 0 || got[0].OutPort != wantFirst {
			t.Fatalf("LookupKey = %v, %v; want a list starting at port %d", got, ok, wantFirst)
		}
		lists = append(lists, heldList{got, append([]Action(nil), got...)})
	}
	check := func(step string) {
		t.Helper()
		for i, l := range lists {
			if !reflect.DeepEqual(l.held, l.want) {
				t.Fatalf("after %s: held list %d is %v, was %v", step, i, l.held, l.want)
			}
		}
	}

	hold(1)
	if err := tab.Modify(first, 1, []Action{{OutPort: 9}}); err != nil {
		t.Fatal(err)
	}
	check("Modify")
	hold(9)
	if _, err := tab.AppendBatch(nil, []FlowOp{ModifyOp(first, 1, []Action{{OutPort: 10}, {OutPort: 9}})}); err != nil {
		t.Fatal(err)
	}
	check("batch modify")
	hold(10)
	// A longer prefix takes over the lookup.
	if _, err := tab.TryAdd(mustFlow(t, "11", 2, 4)); err != nil {
		t.Fatal(err)
	}
	check("Add")
	hold(4)
	if !tab.Delete(first) {
		t.Fatal("delete first failed")
	}
	check("Delete")
	if _, err := tab.AppendBatch(nil, []FlowOp{DeleteOp(second)}); err != nil {
		t.Fatal(err)
	}
	check("batch delete")
	if tab.Len() != 1 {
		t.Errorf("Len=%d, want 1", tab.Len())
	}
}
