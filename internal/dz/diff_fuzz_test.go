package dz

import (
	"sort"
	"strings"
	"testing"
)

// diff_fuzz_test.go differentially fuzzes the prefix-index refactor: the
// compressed trie against a naive map + string-prefix oracle, and the
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

// FuzzTrieVsNaive drives arbitrary insert/delete sequences through the trie
// and a map + strings.HasPrefix oracle, checking LongestPrefix, CoversAny,
// WalkCovered and VisitOverlaps after every operation.
func FuzzTrieVsNaive(f *testing.F) {
	f.Add([]byte{0, 3, 'a', 'b', 'c', 2, 3, 'a', 'b', 'c'}, "abcd")
	f.Add([]byte{0, 0, 0, 5, 'q', 'q', 'q', 'q', 'q', 1, 2, 'z', 'z'}, "")
	f.Add([]byte{0, 16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, "\x01\x02\x03")
	f.Fuzz(func(t *testing.T, ops []byte, rawProbe string) {
		var tr Trie[int]
		naive := make(map[Expr]int)
		check := func(probe Expr) {
			pk, ok := KeyOf(probe)
			if !ok {
				t.Fatalf("probe %q overflowed", probe)
			}
			var bestE Expr
			bestL, found := -1, false
			covered, overlapping := 0, 0
			for m := range naive {
				if strings.HasPrefix(string(probe), string(m)) && m.Len() > bestL {
					bestE, bestL, found = m, m.Len(), true
				}
				if strings.HasPrefix(string(m), string(probe)) {
					covered++
				}
				if m.Overlaps(probe) {
					overlapping++
				}
			}
			gk, gv, gok := tr.LongestPrefix(pk)
			if gok != found || (found && (gk.Expr() != bestE || gv != naive[bestE])) {
				t.Fatalf("LongestPrefix(%q) = %q,%d,%v; naive %q,%d,%v",
					probe, gk.Expr(), gv, gok, bestE, naive[bestE], found)
			}
			if tr.CoversAny(pk) != found {
				t.Fatalf("CoversAny(%q) = %v, naive %v", probe, !found, found)
			}
			got := 0
			tr.WalkCovered(pk, func(Key, int) bool { got++; return true })
			if got != covered {
				t.Fatalf("WalkCovered(%q) = %d, naive %d", probe, got, covered)
			}
			got = 0
			tr.VisitOverlaps(pk, func(k Key, v int) bool {
				if e := k.Expr(); !e.Overlaps(probe) || naive[e] != v {
					t.Fatalf("VisitOverlaps(%q) visited %q,%d", probe, e, v)
				}
				got++
				return true
			})
			if got != overlapping {
				t.Fatalf("VisitOverlaps(%q) = %d, naive %d", probe, got, overlapping)
			}
		}
		step := 0
		for i := 0; i < len(ops); {
			op := ops[i] % 3
			i++
			if i >= len(ops) {
				break
			}
			n := int(ops[i] % 17)
			i++
			if i+n > len(ops) {
				n = len(ops) - i
			}
			e := sanitize(string(ops[i:i+n]), 16)
			i += n
			k, _ := KeyOf(e)
			switch op {
			case 0, 1:
				_, existed := naive[e]
				naive[e] = step
				if tr.Insert(k, step) == existed {
					t.Fatalf("Insert(%q) newness diverges (existed=%v)", e, existed)
				}
			case 2:
				_, existed := naive[e]
				delete(naive, e)
				if tr.Delete(k) != existed {
					t.Fatalf("Delete(%q) diverges (existed=%v)", e, existed)
				}
			}
			step++
			if tr.Len() != len(naive) {
				t.Fatalf("Len = %d, naive %d", tr.Len(), len(naive))
			}
			check(e)
			check(sanitize(rawProbe, 20))
			check(e + sanitize(rawProbe, 4))
		}
	})
}
