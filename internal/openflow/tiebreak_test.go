package openflow

import (
	"net/netip"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/ipmc"
)

// tiebreak_test.go pins the exact Lookup tie-break semantics — priority,
// then prefix length, then FlowID — across both serving paths: the prefix
// trie (every flow keeps priority == |dz|) and the full scan that any
// invariant-violating flow drops the table into.

func mustEventAddr(t *testing.T, e dz.Expr) netip.Addr {
	t.Helper()
	addr, err := ipmc.EventAddr(e)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestLookupTieBreakPriorityBeatsLength: with mixed priorities a shorter
// prefix with a higher priority must beat a longer one (the TCAM orders on
// priority first; the PLEROMA invariant is what normally aligns the two).
func TestLookupTieBreakPriorityBeatsLength(t *testing.T) {
	tab := NewTable()
	short := tab.Add(mustFlow(t, "0", 9, 1)) // slow: priority != |dz|
	tab.Add(mustFlow(t, "0110", 4, 2))       // keeps the invariant
	got, ok := tab.Lookup(mustEventAddr(t, "011010"))
	if !ok || got.ID != short {
		t.Fatalf("Lookup = %v (ok=%v), want short high-priority flow %d", got, ok, short)
	}
}

// TestLookupTieBreakLengthAtEqualPriority: at equal priority the longer
// prefix wins. An unrelated invariant-violating flow forces the full scan
// so the flowLess ordering itself is exercised.
func TestLookupTieBreakLengthAtEqualPriority(t *testing.T) {
	tab := NewTable()
	tab.Add(mustFlow(t, "1", 99, 9)) // unrelated; drops table to full scan
	tab.Add(mustFlow(t, "01", 7, 1))
	long := tab.Add(mustFlow(t, "0110", 7, 2))
	got, ok := tab.Lookup(mustEventAddr(t, "011010"))
	if !ok || got.ID != long {
		t.Fatalf("Lookup = %v (ok=%v), want longer-prefix flow %d", got, ok, long)
	}
}

// TestLookupTieBreakFlowIDBothPaths: same expression, same priority — the
// earliest-installed flow (lowest ID) must win on the fast path and still
// win after an unrelated slow flow forces the full scan.
func TestLookupTieBreakFlowIDBothPaths(t *testing.T) {
	tab := NewTable()
	first := tab.Add(mustFlow(t, "010", 3, 1))
	tab.Add(mustFlow(t, "010", 3, 2))
	addr := mustEventAddr(t, "0101")

	if got, ok := tab.Lookup(addr); !ok || got.ID != first {
		t.Fatalf("fast path: Lookup = %v (ok=%v), want first-installed %d", got, ok, first)
	}
	slow := tab.Add(mustFlow(t, "1", 42, 9)) // force the full scan
	if got, ok := tab.Lookup(addr); !ok || got.ID != first {
		t.Fatalf("slow path: Lookup = %v (ok=%v), want first-installed %d", got, ok, first)
	}
	tab.Delete(slow)
	if got, ok := tab.Lookup(addr); !ok || got.ID != first {
		t.Fatalf("back on fast path: Lookup = %v (ok=%v), want %d", got, ok, first)
	}
}

// TestLookupSlowFlowsToggle drives the table across the fast/slow boundary
// through Add, Modify, and Delete and checks the two paths agree at every
// step (the winner is path-independent while the invariant holds).
func TestLookupSlowFlowsToggle(t *testing.T) {
	tab := NewTable()
	tab.Add(mustFlow(t, "0", 1, 1))
	deep := tab.Add(mustFlow(t, "0110", 4, 2))
	addr := mustEventAddr(t, "011011")

	want := func(stage string, id FlowID) {
		t.Helper()
		got, ok := tab.Lookup(addr)
		if !ok || got.ID != id {
			t.Fatalf("%s: Lookup = %v (ok=%v), want flow %d", stage, got, ok, id)
		}
	}
	want("all flows fast", deep)

	// Modify the deep flow's priority above its length: full scan, and the
	// new priority still wins.
	if !tab.Modify(deep, 50, []Action{{OutPort: 2}}) {
		t.Fatal("modify failed")
	}
	want("deep flow slow", deep)

	// Restore the invariant: the trie must serve the same winner again.
	if !tab.Modify(deep, 4, []Action{{OutPort: 2}}) {
		t.Fatal("restore failed")
	}
	want("invariant restored", deep)

	// Deleting the deep flow falls back to the covering short one.
	shortID := FlowID(1)
	tab.Delete(deep)
	want("deep deleted", shortID)
}

// TestLookupEqualLengthDisjointPrefixes: equal-length flows on disjoint
// subspaces never shadow each other, on either path.
func TestLookupEqualLengthDisjointPrefixes(t *testing.T) {
	tab := NewTable()
	left := tab.Add(mustFlow(t, "00", 2, 1))
	right := tab.Add(mustFlow(t, "01", 2, 2))
	for _, path := range []string{"fast", "slow"} {
		if path == "slow" {
			tab.Add(mustFlow(t, "1", 77, 9))
		}
		if got, ok := tab.Lookup(mustEventAddr(t, "001")); !ok || got.ID != left {
			t.Fatalf("%s: Lookup(001) = %v (ok=%v), want %d", path, got, ok, left)
		}
		if got, ok := tab.Lookup(mustEventAddr(t, "011")); !ok || got.ID != right {
			t.Fatalf("%s: Lookup(011) = %v (ok=%v), want %d", path, got, ok, right)
		}
	}
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
	if !tab.Modify(second, 3, []Action{{OutPort: 7}}) {
		t.Fatal("modify of the non-winner failed")
	}
	want("non-winner modified", first, 1)
	if !tab.Modify(first, 3, []Action{{OutPort: 8}}) {
		t.Fatal("modify of the winner failed")
	}
	want("winner modified", first, 8)
	tab.Delete(first)
	want("winner deleted", second, 7)
	if _, err := tab.ApplyBatch([]FlowOp{ModifyOp(second, 3, []Action{{OutPort: 9}})}); err != nil {
		t.Fatal(err)
	}
	want("new winner modified in a batch", second, 9)
}
