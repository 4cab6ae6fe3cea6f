package dz

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func mustKey(t testing.TB, e Expr) Key {
	t.Helper()
	k, ok := KeyOf(e)
	if !ok {
		t.Fatalf("KeyOf(%q) overflowed", e)
	}
	return k
}

func TestKeyRoundTrip(t *testing.T) {
	for _, e := range []Expr{"", "0", "1", "01", "10110", "0000000011111111",
		Expr(strings.Repeat("10", 56))} {
		k := mustKey(t, e)
		if k.Len() != e.Len() {
			t.Fatalf("Len(%q)=%d", e, k.Len())
		}
		if got := k.Expr(); got != e {
			t.Fatalf("round trip %q -> %q", e, got)
		}
		for i := 0; i < e.Len(); i++ {
			want := byte(0)
			if e[i] == '1' {
				want = 1
			}
			if k.Bit(i) != want {
				t.Fatalf("bit %d of %q = %d", i, e, k.Bit(i))
			}
		}
	}
}

func TestKeyOfOverflow(t *testing.T) {
	long := Expr(strings.Repeat("1", MaxKeyBits+1))
	k, ok := KeyOf(long)
	if ok {
		t.Fatal("oversized expr must not pack ok")
	}
	if k.Len() != MaxKeyBits {
		t.Fatalf("truncated len=%d", k.Len())
	}
}

func TestKeyNormalised(t *testing.T) {
	// Keys packed from different sources must compare equal with ==.
	a := mustKey(t, "1011")
	var raw [14]byte
	raw[0] = 0b10111111 // garbage beyond bit 4 must be masked away
	raw[5] = 0xff
	b := KeyFromBits(raw, 4)
	if a != b {
		t.Fatalf("normalisation failed: %v != %v", a, b)
	}
	if a.Prefix(2) != mustKey(t, "10") {
		t.Fatal("Prefix not normalised")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		a, b Expr
		want int
	}{
		{"", "", 0},
		{"", "1010", 0},
		{"101", "101", 3},
		{"101", "1011", 3},
		{"1010", "1000", 2},
		{"11111111", "11111110", 7},
		{Expr(strings.Repeat("1", 20)), Expr(strings.Repeat("1", 19) + "0"), 19},
	}
	for _, c := range cases {
		got := commonPrefixLen(mustKey(t, c.a), mustKey(t, c.b))
		if got != c.want {
			t.Errorf("cpl(%q,%q)=%d want %d", c.a, c.b, got, c.want)
		}
		if rev := commonPrefixLen(mustKey(t, c.b), mustKey(t, c.a)); rev != got {
			t.Errorf("cpl not symmetric for %q,%q", c.a, c.b)
		}
	}
}

func TestTrieBasics(t *testing.T) {
	var tr Trie[int]
	exprs := []Expr{"", "0", "010", "0101", "0111", "1", "1000"}
	for i, e := range exprs {
		if !tr.Insert(mustKey(t, e), i) {
			t.Fatalf("insert %q not new", e)
		}
	}
	if tr.Len() != len(exprs) {
		t.Fatalf("Len=%d", tr.Len())
	}
	// Replacement is not a new insert.
	if tr.Insert(mustKey(t, "010"), 42) {
		t.Fatal("replacement reported as new")
	}
	if v, ok := tr.Get(mustKey(t, "010")); !ok || v != 42 {
		t.Fatalf("Get(010)=%d,%v", v, ok)
	}
	if _, ok := tr.Get(mustKey(t, "01")); ok {
		t.Fatal("path-only node must not Get")
	}
	// Longest prefix.
	k, v, ok := tr.LongestPrefix(mustKey(t, "010111"))
	if !ok || k.Expr() != "0101" || v != 3 {
		t.Fatalf("LongestPrefix=%q,%d,%v", k.Expr(), v, ok)
	}
	// Walk yields lexicographic order.
	var got []Expr
	tr.Walk(func(k Key, _ int) bool {
		got = append(got, k.Expr())
		return true
	})
	want := []Expr{"", "0", "010", "0101", "0111", "1", "1000"}
	if len(got) != len(want) {
		t.Fatalf("walk=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order %v, want %v", got, want)
		}
	}
	// Delete and re-compress.
	if !tr.Delete(mustKey(t, "0101")) || tr.Delete(mustKey(t, "0101")) {
		t.Fatal("delete bookkeeping wrong")
	}
	if !tr.Delete(mustKey(t, "01")) == false {
		t.Fatal("deleting path-only key must fail")
	}
	k, v, ok = tr.LongestPrefix(mustKey(t, "010111"))
	if !ok || k.Expr() != "010" || v != 42 {
		t.Fatalf("after delete LongestPrefix=%q,%d,%v", k.Expr(), v, ok)
	}
}

func TestTrieVisitPrefixesAndCovered(t *testing.T) {
	var tr Trie[string]
	for _, e := range []Expr{"", "01", "0101", "011", "10"} {
		tr.Insert(mustKey(t, e), string(e))
	}
	var pres []Expr
	tr.VisitPrefixes(mustKey(t, "01011"), func(k Key, _ string) bool {
		pres = append(pres, k.Expr())
		return true
	})
	if len(pres) != 3 || pres[0] != "" || pres[1] != "01" || pres[2] != "0101" {
		t.Fatalf("VisitPrefixes=%v", pres)
	}
	var cov []Expr
	tr.WalkCovered(mustKey(t, "01"), func(k Key, _ string) bool {
		cov = append(cov, k.Expr())
		return true
	})
	if len(cov) != 3 || cov[0] != "01" || cov[1] != "0101" || cov[2] != "011" {
		t.Fatalf("WalkCovered=%v", cov)
	}
	// Both directions in one descent, the probe's own key once.
	var over []Expr
	tr.VisitOverlaps(mustKey(t, "01"), func(k Key, _ string) bool {
		over = append(over, k.Expr())
		return true
	})
	if want := []Expr{"", "01", "0101", "011"}; !slices.Equal(over, want) {
		t.Fatalf("VisitOverlaps=%v want %v", over, want)
	}
	if !tr.CoversAny(mustKey(t, "111")) { // "" covers everything
		t.Fatal("CoversAny must see the whole-space entry")
	}
	tr.Delete(mustKey(t, ""))
	if tr.CoversAny(mustKey(t, "111")) {
		t.Fatal("nothing covers 111 anymore")
	}
}

func TestTrieZeroValue(t *testing.T) {
	var tr Trie[int]
	if tr.Len() != 0 || tr.CoversAny(Key{}) {
		t.Fatal("zero trie must be empty")
	}
	if _, _, ok := tr.LongestPrefix(mustKey(t, "0101")); ok {
		t.Fatal("empty trie matched")
	}
	tr.Walk(func(Key, int) bool { t.Fatal("walk on empty"); return false })
}

// TestTrieRandomisedVsNaive drives random insert/delete churn and checks
// every query against a naive map + string-prefix implementation.
func TestTrieRandomisedVsNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	randExpr := func(maxLen int) Expr {
		l := r.Intn(maxLen + 1)
		buf := make([]byte, l)
		for i := range buf {
			buf[i] = byte('0' + r.Intn(2))
		}
		return Expr(buf)
	}
	for trial := 0; trial < 50; trial++ {
		var tr Trie[int]
		naive := make(map[Expr]int)
		for op := 0; op < 200; op++ {
			e := randExpr(16)
			k := mustKey(t, e)
			switch r.Intn(3) {
			case 0, 1:
				_, existed := naive[e]
				naive[e] = op
				if tr.Insert(k, op) != !existed {
					t.Fatalf("insert %q newness diverges", e)
				}
			case 2:
				_, existed := naive[e]
				delete(naive, e)
				if tr.Delete(k) != existed {
					t.Fatalf("delete %q diverges", e)
				}
			}
			if tr.Len() != len(naive) {
				t.Fatalf("size %d != %d", tr.Len(), len(naive))
			}
			// Probe queries.
			probe := randExpr(20)
			pk := mustKey(t, probe)
			var bestE Expr
			bestL, found := -1, false
			for m := range naive {
				if strings.HasPrefix(string(probe), string(m)) && m.Len() > bestL {
					bestE, bestL, found = m, m.Len(), true
				}
			}
			gk, gv, gok := tr.LongestPrefix(pk)
			if gok != found {
				t.Fatalf("LongestPrefix(%q) found=%v want %v", probe, gok, found)
			}
			if found && (gk.Expr() != bestE || gv != naive[bestE]) {
				t.Fatalf("LongestPrefix(%q)=%q,%d want %q,%d", probe, gk.Expr(), gv, bestE, naive[bestE])
			}
			if tr.CoversAny(pk) != found {
				t.Fatalf("CoversAny(%q) diverges", probe)
			}
			// Covered walk vs naive scan.
			want := 0
			for m := range naive {
				if strings.HasPrefix(string(m), string(probe)) {
					want++
				}
			}
			got := 0
			tr.WalkCovered(pk, func(Key, int) bool { got++; return true })
			if got != want {
				t.Fatalf("WalkCovered(%q)=%d want %d", probe, got, want)
			}
			// Overlap visit = prefixes then covered, the probe itself once.
			var two, one []Key
			tr.VisitPrefixes(pk, func(k Key, _ int) bool {
				if k != pk {
					two = append(two, k)
				}
				return true
			})
			tr.WalkCovered(pk, func(k Key, _ int) bool { two = append(two, k); return true })
			tr.VisitOverlaps(pk, func(k Key, _ int) bool { one = append(one, k); return true })
			if !slices.Equal(one, two) {
				t.Fatalf("VisitOverlaps(%q)=%v want %v", probe, one, two)
			}
		}
	}
}

func TestTrieLongestPrefixNoAlloc(t *testing.T) {
	var tr Trie[int]
	for _, e := range []Expr{"0", "0101", "01011110", "1", "111"} {
		tr.Insert(mustKey(t, e), 1)
	}
	k := mustKey(t, "010111101010")
	allocs := testing.AllocsPerRun(100, func() {
		tr.LongestPrefix(k)
		tr.CoversAny(k)
	})
	if allocs != 0 {
		t.Fatalf("lookup allocates %v/op", allocs)
	}
}
