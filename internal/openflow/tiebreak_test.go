package openflow

import (
	"net/netip"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/ipmc"
)

// tiebreak_test.go pins the Lookup tie-breaks a table can still face: every
// installed flow has priority |dz|, so what is left to break is several flows
// of one expression (the earliest installed wins) and equal-length prefixes
// on disjoint subspaces (neither shadows the other). Each is asked through
// both spellings of the lookup, Lookup and LookupKey.

func mustEventAddr(t *testing.T, e dz.Expr) netip.Addr {
	t.Helper()
	addr, err := ipmc.EventAddr(e)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// wantWinner asserts that Lookup and LookupKey of the event address of e both
// answer the flow id.
func wantWinner(t *testing.T, tab *Table, e dz.Expr, id FlowID) {
	t.Helper()
	addr := mustEventAddr(t, e)
	got, ok := tab.Lookup(addr)
	if !ok || got.ID != id {
		t.Fatalf("Lookup(%s) = %v (ok=%v), want flow %d", e, got, ok, id)
	}
	key, _ := ipmc.KeyFromAddr(addr)
	if actions, ok := tab.LookupKey(key); !ok || len(actions) != len(got.Actions) || actions[0] != got.Actions[0] {
		t.Fatalf("LookupKey(%s) = %v (ok=%v), want flow %d's %v", e, actions, ok, id, got.Actions)
	}
}

// TestLookupTieBreakFlowIDBothPaths: same expression, same priority — the
// earliest-installed flow (lowest ID) wins through Lookup and LookupKey, and
// the next one takes over when it goes.
func TestLookupTieBreakFlowIDBothPaths(t *testing.T) {
	tab := NewTable()
	first := tab.Add(mustFlow(t, "010", 3, 1))
	second := tab.Add(mustFlow(t, "010", 3, 2))
	wantWinner(t, tab, "0101", first)
	tab.Delete(first)
	wantWinner(t, tab, "0101", second)
}

// TestLookupEqualLengthDisjointPrefixes: equal-length flows on disjoint
// subspaces never shadow each other.
func TestLookupEqualLengthDisjointPrefixes(t *testing.T) {
	tab := NewTable()
	left := tab.Add(mustFlow(t, "00", 2, 1))
	right := tab.Add(mustFlow(t, "01", 2, 2))
	wantWinner(t, tab, "001", left)
	wantWinner(t, tab, "011", right)
}

// TestLookupKeySharedBucketFollowsWinner: three flows share one expression,
// so the trie holds one bucket whose actions mirror its winner's. Modifying a
// non-winner, modifying the winner and deleting the winner each leave
// LookupKey — which reads the bucket, not the flow — returning the current
// winner's instruction set.
func TestLookupKeySharedBucketFollowsWinner(t *testing.T) {
	tab := NewTable()
	first := tab.Add(mustFlow(t, "010", 3, 1))
	second := tab.Add(mustFlow(t, "010", 3, 2))
	tab.Add(mustFlow(t, "010", 3, 3))
	key, ok := ipmc.KeyFromAddr(mustEventAddr(t, "0101"))
	if !ok {
		t.Fatal("event address has no key")
	}
	want := func(stage string, id FlowID, port PortID) {
		t.Helper()
		actions, ok := tab.LookupKey(key)
		if !ok || len(actions) != 1 || actions[0].OutPort != port {
			t.Fatalf("%s: LookupKey = %v (ok=%v), want output on port %d", stage, actions, ok, port)
		}
		if got, ok := tab.Lookup(mustEventAddr(t, "0101")); !ok || got.ID != id || got.Actions[0].OutPort != port {
			t.Fatalf("%s: Lookup = %v (ok=%v), want flow %d on port %d", stage, got, ok, id, port)
		}
	}
	want("installed", first, 1)
	if tab.Modify(second, 3, []Action{{OutPort: 7}}) != nil {
		t.Fatal("modify of the non-winner failed")
	}
	want("non-winner modified", first, 1)
	if tab.Modify(first, 3, []Action{{OutPort: 8}}) != nil {
		t.Fatal("modify of the winner failed")
	}
	want("winner modified", first, 8)
	tab.Delete(first)
	want("winner deleted", second, 7)
	if _, err := tab.AppendBatch(nil, []FlowOp{ModifyOp(second, 3, []Action{{OutPort: 9}})}); err != nil {
		t.Fatal(err)
	}
	want("new winner modified in a batch", second, 9)
}
