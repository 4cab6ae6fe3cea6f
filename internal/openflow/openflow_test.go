package openflow

import (
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/ipmc"
)

func mustFlow(t *testing.T, expr dz.Expr, prio int, ports ...PortID) Flow {
	t.Helper()
	actions := make([]Action, len(ports))
	for i, p := range ports {
		actions[i] = Action{OutPort: p}
	}
	f, err := NewFlow(expr, prio, actions...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFlowInvalid(t *testing.T) {
	if _, err := NewFlow("01x", 0); err == nil {
		t.Error("invalid expr must fail")
	}
}

func TestFlowOutPorts(t *testing.T) {
	f := mustFlow(t, "10", 0, 3, 2, 3)
	ports := f.OutPorts()
	if len(ports) != 2 || ports[0] != 2 || ports[1] != 3 {
		t.Errorf("OutPorts=%v", ports)
	}
	if !f.HasPort(2) || f.HasPort(4) {
		t.Error("HasPort wrong")
	}
}

func TestFlowCoverRelations(t *testing.T) {
	// Section 3.3.2: fl1 ≥ fl2 iff dz covers and ports are a subset.
	fl1 := mustFlow(t, "10", 0, 2, 3)
	fl2 := mustFlow(t, "100", 0, 2)
	if !fl1.Covers(fl2) {
		t.Error("fl1 must cover fl2")
	}
	if fl2.Covers(fl1) {
		t.Error("fl2 must not cover fl1")
	}
	// dz covers but ports not subset.
	fl3 := mustFlow(t, "100", 0, 2, 4)
	if fl1.Covers(fl3) {
		t.Error("fl1 must not fully cover fl3 (port 4 missing)")
	}
	// No dz cover relation at all.
	fl4 := mustFlow(t, "01", 0, 2)
	if fl1.Covers(fl4) {
		t.Error("unrelated subspaces must not cover")
	}
}

func TestTableAddDeleteModify(t *testing.T) {
	tab := NewTable()
	id := tab.Add(mustFlow(t, "1", 1, 2))
	if tab.Len() != 1 {
		t.Fatalf("Len=%d", tab.Len())
	}
	if err := tab.Modify(id, 1, []Action{{OutPort: 2}, {OutPort: 3}}); err != nil {
		t.Fatal("Modify failed")
	}
	f, ok := tab.Get(id)
	if !ok || f.Priority != 1 || len(f.Actions) != 2 {
		t.Fatalf("Get=%v,%v", f, ok)
	}
	if !tab.Delete(id) {
		t.Fatal("Delete failed")
	}
	if tab.Delete(id) {
		t.Fatal("double delete must fail")
	}
	if tab.Modify(id, 1, nil) == nil {
		t.Fatal("modify deleted must fail")
	}
	if _, ok := tab.Get(id); ok {
		t.Fatal("get deleted must fail")
	}
	st := tab.Stats()
	if st.Adds != 1 || st.Deletes != 1 || st.Mods != 1 || st.Total() != 3 {
		t.Errorf("stats=%+v", st)
	}
}

// TestPaperFigure3PriorityOrder reproduces the R3 example: an event with
// dz=1001 matches both dz=1 and dz=100, but only the higher-priority
// longer flow is applied.
func TestPaperFigure3PriorityOrder(t *testing.T) {
	tab := NewTable()
	f1, err := NewFlow("100", 3, Action{OutPort: 2}, Action{OutPort: 3})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFlow("1", 1, Action{OutPort: 2})
	if err != nil {
		t.Fatal(err)
	}
	tab.Add(f1)
	tab.Add(f2)

	ev, err := ipmc.EventAddr("1001")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := tab.Lookup(ev)
	if !ok {
		t.Fatal("lookup must match")
	}
	if got.Expr() != "100" {
		t.Errorf("matched %q, want 100 (higher priority)", got.Expr())
	}
	ports := got.OutPorts()
	if len(ports) != 2 || ports[0] != 2 || ports[1] != 3 {
		t.Errorf("ports=%v, want [2 3]", ports)
	}

	// An event matching dz=1 but not dz=100 follows the coarser flow.
	ev2, err := ipmc.EventAddr("1100")
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := tab.Lookup(ev2)
	if !ok || got2.Expr() != "1" {
		t.Errorf("matched %v/%v, want flow dz=1", got2.Expr(), ok)
	}
}

func TestLookupTieBreakLongerPrefix(t *testing.T) {
	tab := NewTable()
	tab.Add(mustFlow(t, "1", 1, 1))
	tab.Add(mustFlow(t, "10", 2, 2))
	ev, _ := ipmc.EventAddr("1000")
	got, ok := tab.Lookup(ev)
	if !ok || got.Expr() != "10" {
		t.Errorf("the longer prefix must win, got %q", got.Expr())
	}
}

func TestLookupNoMatch(t *testing.T) {
	tab := NewTable()
	tab.Add(mustFlow(t, "1", 1, 1))
	ev, _ := ipmc.EventAddr("0")
	if _, ok := tab.Lookup(ev); ok {
		t.Error("lookup must miss")
	}
	// Signal address never matches dz flows... ff0e:ffff... actually it
	// would match an empty-expr flow; PLEROMA never installs those for the
	// signal range, here no flow matches:
	if _, ok := tab.Lookup(ipmc.SignalAddr); ok {
		t.Error("signal must miss")
	}
}

func TestFlowsSortedByID(t *testing.T) {
	tab := NewTable()
	tab.Add(mustFlow(t, "1", 1, 1))
	tab.Add(mustFlow(t, "0", 1, 2))
	fl := tab.Flows()
	if len(fl) != 2 || fl[0].Expr() != "1" || fl[1].Expr() != "0" {
		t.Errorf("Flows=%v", fl)
	}
}

func TestFlowString(t *testing.T) {
	f := mustFlow(t, "100", 1, 3, 2)
	if got := f.String(); got != "100* > 2,3 :PO=1" {
		t.Errorf("String()=%q", got)
	}
}

func TestSetDestAction(t *testing.T) {
	sub := netip.MustParseAddr("fd00::42")
	f, err := NewFlow("100", 1, Action{OutPort: 2, SetDest: sub})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Actions[0].SetDest.IsValid() || f.Actions[0].SetDest != sub {
		t.Error("SetDest not preserved")
	}
}

func BenchmarkLookup1000Flows(b *testing.B) {
	tab := NewTable()
	e := dz.Expr("")
	for i := 0; i < 1000; i++ {
		e = e.Child(byte(i % 2))
		if e.Len() > 100 {
			e = ""
		}
		f, err := NewFlow(e, e.Len(), Action{OutPort: PortID(i%4 + 1)})
		if err != nil {
			b.Fatal(err)
		}
		tab.Add(f)
	}
	ev, _ := ipmc.EventAddr("10101010101010101010")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(ev)
	}
}

// TestPropertyFastSlowLookupEquivalence: with the PLEROMA invariant
// (priority == |dz|), the trie lookup must return exactly what the
// brute-force scan returns.
func TestPropertyFastSlowLookupEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 200; trial++ {
		tab := NewTable()
		var installed []Flow
		n := 1 + r.Intn(30)
		for i := 0; i < n; i++ {
			l := r.Intn(8)
			buf := make([]byte, l)
			for j := range buf {
				buf[j] = byte('0' + r.Intn(2))
			}
			e := dz.Expr(buf)
			f, err := NewFlow(e, e.Len(), Action{OutPort: PortID(1 + r.Intn(4))})
			if err != nil {
				t.Fatal(err)
			}
			tab.Add(f)
			installed = append(installed, f)
		}
		// Random deletions keep the index honest.
		for _, fl := range tab.Flows() {
			if r.Intn(4) == 0 {
				tab.Delete(fl.ID)
			}
		}
		for probe := 0; probe < 20; probe++ {
			l := r.Intn(12)
			buf := make([]byte, l)
			for j := range buf {
				buf[j] = byte('0' + r.Intn(2))
			}
			addr, err := ipmc.EventAddr(dz.Expr(buf))
			if err != nil {
				t.Fatal(err)
			}
			fast, okFast := tab.Lookup(addr)
			// Brute force over the current table contents.
			best, okBest := scanOracle(tab, addr)
			if okFast != okBest {
				t.Fatalf("fast=%v brute=%v for %q", okFast, okBest, buf)
			}
			if okBest && (fast.ID != best.ID || fast.Key != best.Key) {
				t.Fatalf("fast=%v brute=%v", fast, best)
			}
		}
	}
}

func TestTableCapacity(t *testing.T) {
	tab := NewTable()
	tab.SetCapacity(2)
	if tab.Capacity() != 2 {
		t.Fatalf("Capacity=%d", tab.Capacity())
	}
	if _, err := tab.TryAdd(mustFlow(t, "0", 1, 1)); err != nil {
		t.Fatal(err)
	}
	id2, err := tab.TryAdd(mustFlow(t, "1", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.TryAdd(mustFlow(t, "10", 2, 1)); !errors.Is(err, ErrTableFull) {
		t.Fatalf("err=%v, want ErrTableFull", err)
	}
	// Deleting frees capacity.
	if !tab.Delete(id2) {
		t.Fatal("delete failed")
	}
	if _, err := tab.TryAdd(mustFlow(t, "10", 2, 1)); err != nil {
		t.Errorf("add after delete must succeed: %v", err)
	}
	if tab.Len() != 2 {
		t.Errorf("Len=%d", tab.Len())
	}
}

// TestTableAdmissionRule: a flow at a priority other than |dz| is refused
// through Add, TryAdd and Modify, and an expression that does not fit an
// address never becomes a flow (NewFlow); a refusal leaves the table as it
// was — flows, FlowMod counters and the size observer's last count.
func TestTableAdmissionRule(t *testing.T) {
	tab, state := admissionTable(t)
	before := state()
	if id := tab.Add(mustFlow(t, "011", 2, 2)); id != 0 {
		t.Errorf("Add of a 3-bit flow at priority 2 = %d, want 0", id)
	}
	if _, err := tab.TryAdd(mustFlow(t, "1", 0, 2)); !errors.Is(err, ErrPriorityMismatch) {
		t.Errorf("TryAdd of a 1-bit flow at priority 0: err = %v, want ErrPriorityMismatch", err)
	}
	long := dz.Expr(strings.Repeat("1", ipmc.MaxDzLen+1))
	if _, err := NewFlow(long, long.Len()); err == nil {
		t.Errorf("NewFlow of a %d-bit flow succeeded", long.Len())
	}
	if tab.Modify(1, 3, []Action{{OutPort: 5}}) == nil {
		t.Error("Modify of a 2-bit flow to priority 3 succeeded")
	}
	if after := state(); !reflect.DeepEqual(after, before) {
		t.Fatalf("refusals moved the table:\n before %+v\n after  %+v", before, after)
	}
}

// TestApplyBatchAdmissionRule: a batch whose middle op breaks the admission
// rule applies the ops before it, returns their ids and ErrPriorityMismatch,
// and leaves the table exactly as a batch of that prefix alone does.
func TestApplyBatchAdmissionRule(t *testing.T) {
	prefix := []FlowOp{
		AddOp(mustFlow(t, "10", 2, 3)),
		ModifyOp(1, 2, []Action{{OutPort: 4}}),
	}
	for name, bad := range map[string]FlowOp{
		"add":    AddOp(mustFlow(t, "11", 7, 5)),
		"modify": ModifyOp(1, 5, []Action{{OutPort: 6}}),
	} {
		tab, state := admissionTable(t)
		ops := append(append([]FlowOp(nil), prefix...), bad, AddOp(mustFlow(t, "111", 3, 7)))
		applied, err := tab.AppendBatch(nil, ops)
		if !errors.Is(err, ErrPriorityMismatch) || len(applied) != len(prefix) {
			t.Fatalf("%s: applied %v, err %v; want the %d-op prefix and ErrPriorityMismatch", name, applied, err, len(prefix))
		}
		ref, refState := admissionTable(t)
		if _, err := ref.AppendBatch(nil, prefix); err != nil {
			t.Fatal(err)
		}
		if got, want := state(), refState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: table after the refused batch\n %+v\nwant the prefix's\n %+v", name, got, want)
		}
	}
}

// admissionTable returns a table holding flow 1 ("01" at priority 2) with
// a size observer, and a function reading everything a refusal must not
// move.
func admissionTable(t *testing.T) (*Table, func() any) {
	t.Helper()
	tab := NewTable()
	tab.SetCapacity(8)
	observed := -1
	tab.SetSizeObserver(func(n int) { observed = n })
	if id := tab.Add(mustFlow(t, "01", 2, 1)); id != 1 {
		t.Fatalf("first flow got id %d", id)
	}
	return tab, func() any {
		return struct {
			Flows    []Flow
			Stats    ModStats
			Len      int
			Observed int
		}{tab.Flows(), tab.Stats(), tab.Len(), observed}
	}
}
