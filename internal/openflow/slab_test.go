package openflow

import (
	"testing"
	"unsafe"

	"pleroma/internal/dz"
)

// TestExprBucketSize tracks what the trie's value slab holds per match key
// and every hop copies out of it: the winner's slot and its action list's
// header, as it was a *Flow and the header. Two uint32 slots (the winner and
// an interned action set) made it 8 bytes but added a load per hop for no
// measured throughput.
func TestExprBucketSize(t *testing.T) {
	if got := unsafe.Sizeof(exprBucket{}); got != 32 {
		t.Errorf("exprBucket is %d bytes, want 32: the per-hop copy is a tracked number — move the pin only on purpose", got)
	}
}

// TestTableWriteCycleAllocs: once a table has held as many flows as it holds
// now, an add, a modify and a delete allocate nothing — the flow goes into a
// recycled slab slot, which keeps the caller's action list.
func TestTableWriteCycleAllocs(t *testing.T) {
	tab := NewTable()
	lists := [][]Action{{{OutPort: 1}}, {{OutPort: 2}, {OutPort: 3}}}
	keys := make([]dz.Key, 64)
	for i := range keys {
		keys[i] = dz.KeyFromBits([14]byte{byte(i << 2)}, 6)
		if _, err := tab.TryAdd(Flow{Key: keys[i], Priority: 6, Actions: lists[0]}); err != nil {
			t.Fatal(err)
		}
	}
	extra := dz.KeyFromBits([14]byte{0xff}, 8)
	cycle := func() {
		id, err := tab.TryAdd(Flow{Key: extra, Priority: 8, Actions: lists[0]})
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Modify(id, 8, lists[1]); err != nil {
			t.Fatal(err)
		}
		if !tab.Delete(id) {
			t.Fatal("delete failed")
		}
	}
	cycle() // the first slot beyond the 64 flows
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("an add/modify/delete cycle on a warmed table allocates %.1f times, want 0", n)
	}
}

// TestTableSlabBounded: a table that keeps seeing fresh action lists —
// fig7a's filler flows, one list each — reuses the slots of deleted flows,
// so its slab stays as long as the most flows it held at once, and a freed
// slot keeps no list alive.
func TestTableSlabBounded(t *testing.T) {
	tab := NewTable()
	const rounds, window = 10000, 4
	var live []FlowID
	for i := range rounds {
		k := dz.KeyFromBits([14]byte{byte(i), byte(i >> 8)}, 16)
		id, err := tab.TryAdd(Flow{Key: k, Priority: 16, Actions: []Action{{OutPort: PortID(i%4 + 1)}}})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
		if len(live) > window {
			if !tab.Delete(live[0]) {
				t.Fatal("delete failed")
			}
			live = live[1:]
		}
	}
	if got, want := len(tab.flows), window+1; got > want {
		t.Errorf("after %d add/delete rounds the slab holds %d slots, want at most %d", rounds, got, want)
	}
	for at, e := range tab.flows {
		if e.id == 0 && e.actions != nil {
			t.Errorf("free slot %d still holds an action list", at)
		}
	}
}
