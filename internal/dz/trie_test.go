package dz

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
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
	// Every cut of an all-ones key, across both words of the truncation.
	ones := Expr(strings.Repeat("1", MaxKeyBits))
	full := mustKey(t, ones)
	for n := 0; n <= MaxKeyBits; n++ {
		want := mustKey(t, ones[:n])
		if got := full.Prefix(n); got != want {
			t.Fatalf("Prefix(%d) = %q", n, got.Expr())
		}
		if got := KeyFromBits(full.bits, n); got != want {
			t.Fatalf("KeyFromBits(ones, %d) = %q", n, got.Expr())
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
// every query against a naive map + string-prefix implementation: short keys
// that crowd the top nodes, 96–112-bit keys at the far end of a Key, and
// after the churn a delete of everything in random order, down to the empty
// slab, and a refill of it.
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
		o := newTrieOracle(t)
		randKey := func() Expr {
			if trial%2 == 1 && r.Intn(2) == 0 {
				return trieLongPrefix + randExpr(16)
			}
			return randExpr(16)
		}
		for op := 0; op < 200; op++ {
			e := randKey()
			if r.Intn(3) < 2 {
				o.insert(e)
			} else {
				o.delete(e)
			}
			o.checkAround(e, randExpr(4))
			o.check(randExpr(20))
		}
		o.checkWalk()
		stored := o.visited(o.tr.Walk)
		r.Shuffle(len(stored), func(i, j int) { stored[i], stored[j] = stored[j], stored[i] })
		for _, e := range stored {
			o.delete(e)
			o.checkAround(e, "")
		}
		for _, e := range stored[:len(stored)/2] {
			o.insert(e)
		}
		o.checkWalk()
	}
}

// distinctKeys packs the first n distinct expressions of exprs.
func distinctKeys(t testing.TB, exprs []Expr, n int) []Key {
	seen := make(map[Expr]bool)
	var keys []Key
	for _, e := range exprs {
		if !seen[e] && len(keys) < n {
			seen[e] = true
			keys = append(keys, mustKey(t, e))
		}
	}
	return keys
}

// trieTestKeys returns n distinct keys: lengths 8–20 like a host index, and
// every fourth behind trieLongPrefix.
func trieTestKeys(t testing.TB, n int) []Key {
	exprs := randomExprs(2*n, 8, 12, 5)
	for i := 3; i < len(exprs); i += 4 {
		exprs[i] = trieLongPrefix + exprs[i][:len(exprs[i])-4]
	}
	return distinctKeys(t, exprs, n)
}

func TestTrieNoAlloc(t *testing.T) {
	var tr Trie[int]
	keys := trieTestKeys(t, 512)
	for i, k := range keys {
		tr.Insert(k, i)
	}
	i, sum := 0, 0
	count := func(_ Key, v int) bool { sum += v; return true }
	allocs := testing.AllocsPerRun(1000, func() {
		k := keys[i%len(keys)]
		i++
		tr.Get(k)
		tr.LongestPrefix(k)
		tr.CoversAny(k)
		tr.VisitPrefixes(k, count)
		tr.VisitOverlaps(k.Prefix(k.Len()/2), count)
	})
	if allocs != 0 {
		t.Fatalf("lookups allocate %v/op", allocs)
	}
}

// TestTrieChurnDoesNotGrow: a trie whose population is steady recycles its
// blocks. The script is periodic — a window of 512 keys sliding round a pool
// of 1024 — so one period creates every block any later one needs.
func TestTrieChurnDoesNotGrow(t *testing.T) {
	var tr Trie[int]
	pool := trieTestKeys(t, 1024)
	window := len(pool) / 2
	for i, k := range pool[:window] {
		tr.Insert(k, i)
	}
	i := 0
	cycle := func() {
		if !tr.Delete(pool[i%len(pool)]) || !tr.Insert(pool[(i+window)%len(pool)], i) {
			t.Fatalf("cycle %d: key not where the script left it", i)
		}
		i++
	}
	for i < len(pool) {
		cycle()
	}
	nodes, vals := len(tr.nodes.items), len(tr.vals.items)
	if allocs := testing.AllocsPerRun(10000, cycle); allocs != 0 {
		t.Fatalf("steady churn allocates %v/op", allocs)
	}
	if n, v := len(tr.nodes.items), len(tr.vals.items); n != nodes || v != vals {
		t.Fatalf("slabs grew under steady churn: nodes %d -> %d, values %d -> %d", nodes, n, vals, v)
	}
	if tr.Len() != window {
		t.Fatalf("Len = %d, want %d", tr.Len(), window)
	}
}

// TestTrieConcurrentReaders pins "reads do not write": run under -race, any
// store on a lookup path — a cache, a lazily built table — is a report.
func TestTrieConcurrentReaders(t *testing.T) {
	var tr Trie[int]
	keys := trieTestKeys(t, 512)
	for i, k := range keys {
		tr.Insert(k, i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 4*len(keys); i++ {
				k := keys[i%len(keys)]
				if _, v, ok := tr.LongestPrefix(k); !ok || keys[v].Len() > k.Len() {
					t.Errorf("LongestPrefix(%q) = %d,%v", k.Expr(), v, ok)
					return
				}
				own := false
				tr.VisitOverlaps(k.Prefix(k.Len()-2), func(got Key, _ int) bool {
					own = own || got == k
					return true
				})
				if _, ok := tr.Get(k); !ok || !own || !tr.CoversAny(k) {
					t.Errorf("reads of %q disagree with what was stored", k.Expr())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// VisitPrefixes calls fn for every stored entry whose key is a prefix of k
// (coarsest first). fn returning false stops the walk.
func (t *Trie[V]) VisitPrefixes(k Key, fn func(Key, V) bool) {
	t.visit(k, true, false, fn)
}

// WalkCovered calls fn for every stored entry whose key k covers (k is a
// prefix of the stored key, including k itself), in lexicographic order.
// fn returning false stops the walk.
func (t *Trie[V]) WalkCovered(k Key, fn func(Key, V) bool) {
	t.visit(k, false, true, fn)
}

// Walk calls fn for every stored entry in lexicographic key order
// (prefixes before their extensions). fn returning false stops the walk.
func (t *Trie[V]) Walk(fn func(Key, V) bool) {
	t.visit(Key{}, false, true, fn)
}
