package openflow

import (
	"errors"
	"sync"
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
	applied, err := tab.ApplyBatch(ops)
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
	applied, err := tab.ApplyBatch(ops)
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
	if _, err := tab.ApplyBatch([]FlowOp{DeleteOp(99)}); err == nil {
		t.Error("deleting unknown id must fail")
	}
	if _, err := tab.ApplyBatch([]FlowOp{ModifyOp(99, 0, nil)}); err == nil {
		t.Error("modifying unknown id must fail")
	}
	if _, err := tab.ApplyBatch([]FlowOp{{Kind: OpKind(42)}}); err == nil {
		t.Error("unknown op kind must fail")
	}
}

// TestTableConcurrentAccess hammers one table from several goroutines;
// meaningful under -race. Forwarding-path readers range over the action
// lists LookupKey hands out by reference while writers Modify, batch-modify
// and delete the flows that own them: a list a reader holds is never written.
func TestTableConcurrentAccess(t *testing.T) {
	tab := NewTable()
	var wg sync.WaitGroup
	flows := make([]Flow, 4)
	for w := range flows {
		flows[w] = mustFlow(t, "1", 1, PortID(w+1))
	}
	ev, err := ipmc.EventAddr("1111")
	if err != nil {
		t.Fatal(err)
	}
	key, _ := ipmc.KeyFromAddr(ev)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				actions, _ := tab.LookupKey(key)
				for _, a := range actions {
					if a.OutPort < 1 || a.OutPort > 10 {
						t.Errorf("LookupKey handed out a torn action list: %v", actions)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id, err := tab.TryAdd(flows[w])
				if err != nil {
					t.Error(err)
					return
				}
				tab.Lookup(ev)
				_ = tab.Flows()
				_ = tab.Stats()
				if !tab.Modify(id, 1, []Action{{OutPort: 9}}) {
					t.Error("modify failed")
					return
				}
				if _, err := tab.ApplyBatch([]FlowOp{ModifyOp(id, 1, []Action{{OutPort: 10}, {OutPort: 9}})}); err != nil {
					t.Error(err)
					return
				}
				if !tab.Delete(id) {
					t.Error("delete failed")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if tab.Len() != 0 {
		t.Errorf("Len=%d, want 0", tab.Len())
	}
}
