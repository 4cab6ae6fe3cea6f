package openflow

import (
	"errors"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/ipmc"
)

// scanOracle is the reference lookup: a full scan over copies of the
// installed flows, CIDR match on the address, flowLess tie-breaks. It shares
// nothing with the trie and nothing with the packed-key path.
func scanOracle(tab *Table, addr netip.Addr) (Flow, bool) {
	var best *Flow
	for _, f := range tab.Flows() {
		f := f
		match, err := ipmc.FromExpr(f.Expr())
		if err != nil || !match.Contains(addr) {
			continue
		}
		if best == nil || flowLess(best, &f) {
			best = &f
		}
	}
	if best == nil {
		return Flow{}, false
	}
	return *best, true
}

// flowLess reports whether candidate b should win over current best a: the
// TCAM order — higher priority, then longer prefix, then lower FlowID.
func flowLess(a, b *Flow) bool {
	if a.Priority != b.Priority {
		return b.Priority > a.Priority
	}
	if a.Key.Len() != b.Key.Len() {
		return b.Key.Len() > a.Key.Len()
	}
	return b.ID < a.ID
}

// fuzzLongPrefix puts expressions at 104–112 bits, where a flow's prefix ends
// in the last bytes a key has.
var fuzzLongPrefix = dz.Expr(strings.Repeat("01101", 21)[:104])

// bitsExpr renders the n high bits of b as an expression (n ≤ 8).
func bitsExpr(b byte, n int) dz.Expr {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = '0' + (b>>(7-i))&1
	}
	return dz.Expr(buf)
}

// FuzzLookupKeyVsAddr: the packed-key lookup of the forwarding path, the
// address lookup written over it and the full-scan oracle name the same
// winner with the same actions, after every step of an add/modify/delete
// program. An operation is four bytes [code, a, b, c]: code%4 picks add (0,
// 1), modify (2) or delete (3) of the a-th installed flow; an added flow
// matches the a%9 high bits of b — few enough expressions that several flows
// share one, so Table.shared and the lowest-FlowID rule are hit — behind
// fuzzLongPrefix when code&0x80 is set; code&0x40 gives it (or the modified
// flow) the priority c%16 in place of |dz|, which the table must refuse —
// unless c%16 happens to be |dz| — leaving its flows and counters as they
// were; code&0x20 adds a SetDest action; code&0x10 sends the operation
// through AppendBatch. Queries are the query bytes cut to 0, 1,
// 24, 111, 112 and qlen%113 bits, the flows' own expressions, and an IPv4
// and a non-ff0e IPv6 address made of the same bytes.
//
// A program is cut at fuzzMaxOps operations. The check after every operation
// asks the oracle once per installed flow and the oracle copies and sorts the
// table, so a program costs its length cubed: the 728 adds the fuzzer grows in
// seconds take 40 s to replay, the engine kills a worker silent for 10 s, and
// the run fails with a "crasher" that is only slow. 64 operations are more
// than any committed seed has, fill every bucket shape several times over, and
// replay in tens of milliseconds.
const fuzzMaxOps = 64

func FuzzLookupKeyVsAddr(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzLookupKeyVsAddr) holds the
	// named cases; these two keep the target useful without it.
	f.Add([]byte{0, 1, 0x80, 0, 0, 3, 0x80, 1, 0, 3, 0x80, 2}, []byte{0x80}, uint8(1))
	f.Add([]byte{0x40, 1, 0, 9, 0, 4, 0x60, 1, 0x40, 4, 0x60, 7, 3, 0, 0, 0}, []byte{0x6a, 0xff}, uint8(24))
	f.Fuzz(func(t *testing.T, prog, query []byte, qlen uint8) {
		prog = prog[:min(len(prog), 4*fuzzMaxOps)]
		tab := NewTable()
		var installed []FlowID
		var qbits [14]byte
		copy(qbits[:], query)
		v4 := netip.AddrFrom4([4]byte(qbits[:4]))
		var raw [16]byte
		copy(raw[:], query)
		if raw[0] == 0xff && raw[1] == 0x0e {
			raw[1] = 0x0f
		}
		outside := netip.AddrFrom16(raw)

		check := func(k dz.Key) {
			t.Helper()
			addr := ipmc.AddrFromKey(k)
			pad := ipmc.PadKey(k)
			if fromAddr, ok := ipmc.KeyFromAddr(addr); !ok || fromAddr != pad {
				t.Fatalf("KeyFromAddr(AddrFromKey(%q)) = %v, %v; PadKey gives %v", k.Expr(), fromAddr, ok, pad)
			}
			want, wantOK := scanOracle(tab, addr)
			got, ok := tab.Lookup(addr)
			actions, okKey := tab.LookupKey(pad)
			if ok != wantOK || okKey != wantOK {
				t.Fatalf("query %q: oracle matches=%v, Lookup %v, LookupKey %v", k.Expr(), wantOK, ok, okKey)
			}
			if !wantOK {
				return
			}
			if got.ID != want.ID || got.Key != want.Key || got.Priority != want.Priority || !slices.Equal(got.Actions, want.Actions) {
				t.Fatalf("query %q: Lookup = %v, oracle %v", k.Expr(), got, want)
			}
			if !slices.Equal(actions, want.Actions) {
				t.Fatalf("query %q: LookupKey actions %v, oracle's winner %v has %v", k.Expr(), actions, want, want.Actions)
			}
			if k.Len() < ipmc.MaxDzLen {
				if a, ok := tab.LookupKey(k); ok {
					t.Fatalf("LookupKey(%q), %d bits and not an address's key, matched %v", k.Expr(), k.Len(), a)
				}
			}
		}
		checkAll := func() {
			t.Helper()
			for _, n := range []int{0, 1, 24, 111, 112, int(qlen) % 113} {
				check(dz.KeyFromBits(qbits, n))
			}
			for _, fl := range tab.Flows() {
				k := fl.Key
				check(k)
			}
			for _, addr := range []netip.Addr{v4, outside, ipmc.SignalAddr, {}} {
				k, isDz := ipmc.KeyFromAddr(addr)
				_, okScan := scanOracle(tab, addr)
				_, ok := tab.Lookup(addr)
				_, okKey := tab.LookupKey(k)
				if isDz || okScan || ok || okKey {
					t.Fatalf("non-dz destination %v: KeyFromAddr ok=%v, oracle %v, Lookup %v, LookupKey %v — want no match",
						addr, isDz, okScan, ok, okKey)
				}
			}
		}

		checkAll()
		for ; len(prog) >= 4; prog = prog[4:] {
			code, a, b, c := prog[0], prog[1], prog[2], prog[3]
			actions := []Action{{OutPort: PortID(c%4 + 1)}}
			if code&0x20 != 0 {
				actions = append(actions, Action{OutPort: PortID(b%4 + 1), SetDest: netip.AddrFrom4([4]byte{10, 0, b, c})})
			}
			var op FlowOp
			refused := false // the op carries a priority other than its flow's |dz|
			switch kind := code % 4; {
			case kind <= 1:
				e := bitsExpr(b, int(a%9))
				if code&0x80 != 0 {
					e = fuzzLongPrefix + e
				}
				prio := e.Len()
				if code&0x40 != 0 {
					prio = int(c % 16)
				}
				fl, err := NewFlow(e, prio, actions...)
				if err != nil {
					t.Fatal(err)
				}
				op, refused = AddOp(fl), prio != e.Len()
			case len(installed) == 0:
				continue
			case kind == 2:
				id := installed[int(a)%len(installed)]
				fl, _ := tab.Get(id)
				prio := fl.Key.Len()
				if code&0x40 != 0 {
					prio = int(c % 16)
				}
				op, refused = ModifyOp(id, prio, actions), prio != fl.Key.Len()
			default:
				at := int(a) % len(installed)
				op = DeleteOp(installed[at])
				installed = slices.Delete(installed, at, at+1)
			}
			flows, stats := tab.Flows(), tab.Stats()
			var applied bool
			switch {
			case code&0x10 != 0:
				ids, err := tab.AppendBatch(nil, []FlowOp{op})
				if err != nil && !errors.Is(err, ErrPriorityMismatch) {
					t.Fatal(err)
				}
				applied = err == nil
				stats.Batches++ // a batch counts whether or not its op applies
				if applied && op.Kind == OpAdd {
					installed = append(installed, ids[0])
				}
			case op.Kind == OpAdd:
				id := tab.Add(op.Flow)
				applied = id != 0
				if applied {
					installed = append(installed, id)
				}
			case op.Kind == OpModify:
				applied = tab.Modify(op.ID, op.Priority, op.Actions) == nil
			default:
				applied = tab.Delete(op.ID)
			}
			if applied == refused {
				t.Fatalf("%v of flow %d: applied=%v, want %v", op.Kind, op.ID, applied, !refused)
			}
			if refused && (!reflect.DeepEqual(tab.Flows(), flows) || tab.Stats() != stats) {
				t.Fatalf("refused %v moved the table: flows %v → %v, stats %+v → %+v", op.Kind, flows, tab.Flows(), stats, tab.Stats())
			}
			checkAll()
		}
	})
}
