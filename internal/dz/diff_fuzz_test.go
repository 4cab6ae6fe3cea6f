package dz

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// diff_fuzz_test.go differentially fuzzes the prefix-index refactor: the
// trie against a naive map + string-prefix oracle, and the
// merge-based Set algebra against the pre-refactor O(n²) implementations,
// which are preserved below as naive* oracles.

// naiveCanonical is the pre-refactor canonicalisation: sort, remove covered
// members, merge adjacent sibling pairs, repeated until a fixed point.
func naiveCanonical(s Set) Set {
	if len(s) == 0 {
		return nil
	}
	work := make([]Expr, len(s))
	copy(work, s)
	for {
		sort.Slice(work, func(i, j int) bool { return work[i] < work[j] })
		kept := work[:0]
		for _, e := range work {
			if len(kept) > 0 && kept[len(kept)-1].Covers(e) {
				continue
			}
			kept = append(kept, e)
		}
		work = kept
		merged := false
		out := work[:0]
		i := 0
		for i < len(work) {
			if i+1 < len(work) {
				a, b := work[i], work[i+1]
				if sa, ok := a.Sibling(); ok && sa == b {
					out = append(out, a[:len(a)-1])
					merged = true
					i += 2
					continue
				}
			}
			out = append(out, work[i])
			i++
		}
		work = out
		if !merged {
			break
		}
	}
	if len(work) == 0 {
		return nil
	}
	res := make(Set, len(work))
	copy(res, work)
	return res
}

// naiveSubtractExpr is the pre-refactor per-member subtraction.
func naiveSubtractExpr(s Set, e Expr) Set {
	var out []Expr
	for _, m := range s {
		out = append(out, m.Subtract(e)...)
	}
	return naiveCanonical(Set(out))
}

// naiveSubtract folds naiveSubtractExpr over the subtrahend's members.
func naiveSubtract(s, o Set) Set {
	res := s
	for _, e := range o {
		res = naiveSubtractExpr(res, e)
		if res.IsEmpty() {
			return nil
		}
	}
	return res
}

// naiveCovers is the pre-refactor subtract-until-empty coverage check.
func naiveCovers(s, o Set) bool {
	for _, e := range o {
		rest := Set{e}
		for _, m := range s {
			rest = naiveSubtractExpr(rest, m)
			if rest.IsEmpty() {
				break
			}
		}
		if !rest.IsEmpty() {
			return false
		}
	}
	return true
}

// naiveIntersect is the pre-refactor pairwise overlap scan.
func naiveIntersect(s, o Set) Set {
	var out []Expr
	for _, a := range s {
		for _, b := range o {
			if ov, ok := a.Overlap(b); ok {
				out = append(out, ov)
			}
		}
	}
	return naiveCanonical(Set(out))
}

// naiveUnion appends and canonicalises.
func naiveUnion(s, o Set) Set {
	out := make([]Expr, 0, len(s)+len(o))
	out = append(out, s...)
	out = append(out, o...)
	return naiveCanonical(Set(out))
}

// sanitizeSet maps arbitrary fuzz bytes onto a raw (deliberately
// non-canonical) member list: length prefix, then bits.
func sanitizeSet(raw string) Set {
	var out Set
	for len(raw) > 0 && len(out) < 8 {
		n := int(raw[0] % 13)
		raw = raw[1:]
		if n > len(raw) {
			n = len(raw)
		}
		out = append(out, sanitize(raw[:n], 16))
		raw = raw[n:]
	}
	return out
}

// FuzzSetAlgebraOldVsNew replays every rewritten Set operation against its
// preserved pre-refactor implementation on the same raw inputs.
func FuzzSetAlgebraOldVsNew(f *testing.F) {
	f.Add("\x03abc\x02de\x04fghi", "\x02xy\x05zzzzz")
	f.Add("\x01a\x01b\x01c\x01d", "")
	f.Add("\x0cLLLLLLLLLLLL\x0cMMMMMMMMMMMM", "\x04abcd\x04efgh")
	f.Fuzz(func(t *testing.T, rawA, rawB string) {
		a := sanitizeSet(rawA)
		b := sanitizeSet(rawB)

		canon := a.Canonical()
		if !canon.Equal(naiveCanonical(a)) {
			t.Fatalf("Canonical(%v) = %v, naive = %v", a, canon, naiveCanonical(a))
		}
		if !canon.isCanonical() {
			t.Fatalf("Canonical(%v) = %v not canonical", a, canon)
		}
		if got, want := a.Union(b), naiveUnion(a, b); !got.Equal(want) {
			t.Fatalf("Union(%v, %v) = %v, naive = %v", a, b, got, want)
		}
		if got, want := a.Intersect(b), naiveIntersect(a, b); !got.Equal(want) {
			t.Fatalf("Intersect(%v, %v) = %v, naive = %v", a, b, got, want)
		}
		if got, want := a.Subtract(b), naiveSubtract(a, b); !got.Canonical().Equal(want.Canonical()) {
			t.Fatalf("Subtract(%v, %v) = %v, naive = %v", a, b, got, want)
		}
		if got, want := a.Covers(b), naiveCovers(a, b); got != want {
			t.Fatalf("Covers(%v, %v) = %v, naive = %v", a, b, got, want)
		}
		if len(b) > 0 {
			if got, want := a.SubtractExpr(b[0]), naiveSubtractExpr(a, b[0]); !got.Canonical().Equal(want.Canonical()) {
				t.Fatalf("SubtractExpr(%v, %q) = %v, naive = %v", a, b[0], got, want)
			}
		}
		// Region identities tie the operations to each other.
		inter := a.Intersect(b)
		if !a.Covers(inter) || !b.Covers(inter) {
			t.Fatalf("intersection %v escapes an operand (%v, %v)", inter, a, b)
		}
		if !a.Subtract(b).Union(inter).Equal(canon) {
			t.Fatalf("(a−b) ∪ (a∩b) ≠ a for %v, %v", a, b)
		}
	})
}

// trieOracle runs a Trie beside a map and checks every answer of the trie,
// visiting order included, against string-prefix algebra over the map.
type trieOracle struct {
	t     testing.TB
	tr    Trie[int]
	naive map[Expr]int
	step  int // the value the next insert stores
}

func newTrieOracle(t testing.TB) *trieOracle {
	return &trieOracle{t: t, naive: make(map[Expr]int)}
}

func (o *trieOracle) insert(e Expr) {
	_, existed := o.naive[e]
	o.naive[e] = o.step
	if o.tr.Insert(mustKey(o.t, e), o.step) == existed {
		o.t.Fatalf("Insert(%q) newness diverges (existed=%v)", e, existed)
	}
	o.after()
}

func (o *trieOracle) delete(e Expr) {
	_, existed := o.naive[e]
	delete(o.naive, e)
	if o.tr.Delete(mustKey(o.t, e)) != existed {
		o.t.Fatalf("Delete(%q) diverges (existed=%v)", e, existed)
	}
	o.after()
}

func (o *trieOracle) after() {
	o.step++
	if o.tr.Len() != len(o.naive) {
		o.t.Fatalf("Len = %d, naive %d", o.tr.Len(), len(o.naive))
	}
	if len(o.naive) > 0 {
		return
	}
	if len(o.tr.nodes.items)+len(o.tr.vals.items) != 0 {
		o.t.Fatalf("emptied trie keeps %d nodes, %d values",
			len(o.tr.nodes.items), len(o.tr.vals.items))
	}
	// A released slot is zeroed, or a deleted value would stay reachable.
	all := o.tr.vals.items[:cap(o.tr.vals.items)]
	if i := slices.IndexFunc(all, func(v int) bool { return v != 0 }); i >= 0 {
		o.t.Fatalf("emptied trie still holds value %d in slot %d", all[i], i)
	}
}

// visited runs one of the trie's walks and returns the keys it handed out,
// failing on a value that is not the stored one.
func (o *trieOracle) visited(walk func(fn func(Key, int) bool)) []Expr {
	var got []Expr
	walk(func(k Key, v int) bool {
		e := k.Expr()
		if want, ok := o.naive[e]; !ok || want != v {
			o.t.Fatalf("visited %q=%d, stored %d (%v)", e, v, want, ok)
		}
		got = append(got, e)
		return true
	})
	return got
}

// check compares every read with probe — shorter, longer or equal to what
// is stored — against the map.
func (o *trieOracle) check(probe Expr) {
	t, pk := o.t, mustKey(o.t, probe)
	var prefixes, covered []Expr
	for m := range o.naive {
		if strings.HasPrefix(string(probe), string(m)) {
			prefixes = append(prefixes, m)
		}
		if strings.HasPrefix(string(m), string(probe)) {
			covered = append(covered, m)
		}
	}
	slices.SortFunc(prefixes, func(a, b Expr) int { return len(a) - len(b) })
	slices.Sort(covered) // lexicographic: a prefix sorts before its extensions
	overlaps := prefixes
	if _, ok := o.naive[probe]; ok {
		overlaps = prefixes[:len(prefixes)-1] // the probe itself comes with covered
	}
	overlaps = append(slices.Clone(overlaps), covered...)

	gk, gv, gok := o.tr.LongestPrefix(pk)
	if gok != (len(prefixes) > 0) {
		t.Fatalf("LongestPrefix(%q) found=%v, naive %v", probe, gok, prefixes)
	}
	if gok {
		if want := prefixes[len(prefixes)-1]; gk.Expr() != want || gv != o.naive[want] {
			t.Fatalf("LongestPrefix(%q) = %q,%d; naive %q,%d", probe, gk.Expr(), gv, want, o.naive[want])
		}
	}
	if o.tr.CoversAny(pk) != gok {
		t.Fatalf("CoversAny(%q) = %v, naive %v", probe, !gok, gok)
	}
	wv, wok := o.naive[probe]
	if v, ok := o.tr.Get(pk); ok != wok || v != wv {
		t.Fatalf("Get(%q) = %d,%v; naive %d,%v", probe, v, ok, wv, wok)
	}
	if got := o.visited(func(fn func(Key, int) bool) { o.tr.VisitPrefixes(pk, fn) }); !slices.Equal(got, prefixes) {
		t.Fatalf("VisitPrefixes(%q) = %v, naive %v", probe, got, prefixes)
	}
	if got := o.visited(func(fn func(Key, int) bool) { o.tr.WalkCovered(pk, fn) }); !slices.Equal(got, covered) {
		t.Fatalf("WalkCovered(%q) = %v, naive %v", probe, got, covered)
	}
	if got := o.visited(func(fn func(Key, int) bool) { o.tr.VisitOverlaps(pk, fn) }); !slices.Equal(got, overlaps) {
		t.Fatalf("VisitOverlaps(%q) = %v, naive %v", probe, got, overlaps)
	}
	// AppendOverlaps is VisitOverlaps without keys or callbacks: the same
	// values in the same order, appended behind what dst already holds.
	var visitedVals []int
	o.tr.VisitOverlaps(pk, func(_ Key, v int) bool { visitedVals = append(visitedVals, v); return true })
	if got := o.tr.AppendOverlaps([]int{-1}, pk); got[0] != -1 || !slices.Equal(got[1:], visitedVals) {
		t.Fatalf("AppendOverlaps(%q) = %v, VisitOverlaps visited %v behind -1", probe, got, visitedVals)
	}
	if len(overlaps) > 1 {
		calls := 0
		o.tr.VisitOverlaps(pk, func(Key, int) bool { calls++; return false })
		if calls != 1 {
			t.Fatalf("VisitOverlaps(%q) went on for %d calls after fn said stop", probe, calls)
		}
	}
}

// checkAround probes with e itself, a longer key, and the shorter keys the
// contribution tries walk from: e's first half and e short of one bit.
func (o *trieOracle) checkAround(e, tail Expr) {
	o.check(e)
	o.check((e + tail).Truncate(MaxKeyBits))
	o.check(e.Truncate(e.Len() / 2))
	if e.Len() > 0 {
		o.check(e.Truncate(e.Len() - 1))
	}
}

// checkWalk compares the whole-trie walk with the sorted map.
func (o *trieOracle) checkWalk() {
	want := make([]Expr, 0, len(o.naive))
	for m := range o.naive {
		want = append(want, m)
	}
	slices.Sort(want)
	if got := o.visited(o.tr.Walk); !slices.Equal(got, want) {
		o.t.Fatalf("Walk = %v, naive %v", got, want)
	}
}

// trieLongPrefix puts keys at 96–112 bits, where nodes hang off one deep
// chain and the longest keys end in the last node a Key can reach.
var trieLongPrefix = Expr(strings.Repeat("0110", 24))

// FuzzTrieVsNaive drives arbitrary insert/delete sequences through the trie
// and a map + strings.HasPrefix oracle, checking every read after every
// operation. An operation is an opcode byte, a length byte and that many
// operand bytes: opcode%3 picks insert (0, 1) or delete (2); bit 0x40 turns
// it into "delete everything the operand covers" (subtrees pruned, tries
// emptied and refilled, blocks recycled); bit 0x80 moves the operand behind
// trieLongPrefix.
func FuzzTrieVsNaive(f *testing.F) {
	f.Add([]byte{0, 3, 'a', 'b', 'c', 2, 3, 'a', 'b', 'c'}, "abcd")
	f.Add([]byte{0, 0, 0, 5, 'q', 'q', 'q', 'q', 'q', 1, 2, 'z', 'z'}, "")
	f.Add([]byte{0, 16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, "\x01\x02\x03")
	// 100–112-bit keys around one deep node, then the lot deleted by prefix.
	f.Add([]byte{0x80, 16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0x80, 7, 1, 2, 3, 4, 5, 6, 8,
		0x81, 5, 1, 2, 3, 4, 6, 0, 2, 'a', 'b', 0x82, 7, 1, 2, 3, 4, 5, 6, 8, 0xc0, 0, 0x40, 0}, "\x01\x02\x03\x04\x05")
	// A full node (every 5-bit key), then deletes that shrink its blocks.
	full := []byte{}
	for v := byte(0); v < 32; v++ {
		full = append(full, 0, 5, v>>4, v>>3, v>>2, v>>1, v)
	}
	for v := byte(0); v < 32; v += 3 {
		full = append(full, 2, 5, v>>4, v>>3, v>>2, v>>1, v)
	}
	f.Add(append(full, 0x40, 1, 1, 0x40, 0), "\x01")
	f.Fuzz(func(t *testing.T, ops []byte, rawProbe string) {
		o := newTrieOracle(t)
		for i := 0; i+1 < len(ops); {
			code := ops[i]
			n := int(ops[i+1] % 17)
			i += 2
			if i+n > len(ops) {
				n = len(ops) - i
			}
			e := sanitize(string(ops[i:i+n]), 16)
			i += n
			if code&0x80 != 0 {
				e = trieLongPrefix + e
			}
			switch {
			case code&0x40 != 0:
				for _, m := range o.visited(func(fn func(Key, int) bool) { o.tr.WalkCovered(mustKey(t, e), fn) }) {
					o.delete(m)
				}
			case code%3 == 2:
				o.delete(e)
			default:
				o.insert(e)
			}
			o.checkAround(e, sanitize(rawProbe, 4))
			o.check(sanitize(rawProbe, 20))
			o.checkWalk()
		}
	})
}
