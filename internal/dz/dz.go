// Package dz implements the dz-expression algebra that PLEROMA uses for
// spatial indexing of the event space (Section 2 of the paper).
//
// The event space is recursively bisected, cycling through the dimensions;
// every subspace reachable by such bisections is identified by a binary
// string called a dz-expression. The algebra has four defining properties:
//
//  1. the shorter the dz, the larger the subspace;
//  2. dz_i covers dz_j iff dz_i is a prefix of dz_j (written dz_i ≥ dz_j);
//  3. two subspaces overlap iff one covers the other, and the overlap is
//     identified by the longer of the two expressions;
//  4. the difference of two overlapping subspaces is in general a set of
//     subspaces (the "siblings" along the refinement path).
//
// Expressions compose into Sets, which are kept canonical: no member covers
// another, complete sibling pairs are merged, and members are sorted.
package dz

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Expr is a dz-expression: a string over the alphabet {0,1}. The empty
// expression denotes the whole event space.
type Expr string

// Whole is the dz-expression of the entire event space.
const Whole Expr = ""

// Validate reports whether the expression contains only '0' and '1'.
func (e Expr) Validate() error {
	for i := 0; i < len(e); i++ {
		if e[i] != '0' && e[i] != '1' {
			return fmt.Errorf("dz: invalid character %q at index %d in %q", e[i], i, string(e))
		}
	}
	return nil
}

// Len returns the number of bisections encoded by the expression.
func (e Expr) Len() int { return len(e) }

// Covers reports whether e covers o, i.e. whether the subspace of o is
// contained in the subspace of e. This is the prefix relation: e ≥ o.
// Every expression covers itself.
func (e Expr) Covers(o Expr) bool {
	return len(e) <= len(o) && o[:len(e)] == e
}

// Overlaps reports whether the two subspaces overlap, which for
// dz-expressions means one covers the other.
func (e Expr) Overlaps(o Expr) bool {
	return e.Covers(o) || o.Covers(e)
}

// Child returns the expression refined by one bisection step. bit must be 0
// or 1.
func (e Expr) Child(bit byte) Expr {
	if bit == 0 {
		return e + "0"
	}
	return e + "1"
}

// Parent returns the expression with the last bisection removed. The whole
// space has no parent; ok is false in that case.
func (e Expr) Parent() (parent Expr, ok bool) {
	if len(e) == 0 {
		return "", false
	}
	return e[:len(e)-1], true
}

// Sibling returns the expression denoting the other half of e's parent
// subspace. The whole space has no sibling; ok is false in that case.
func (e Expr) Sibling() (sib Expr, ok bool) {
	if len(e) == 0 {
		return "", false
	}
	last := e[len(e)-1]
	flipped := byte('0')
	if last == '0' {
		flipped = '1'
	}
	return e[:len(e)-1] + Expr(flipped), true
}

// Subtract returns the set of maximal subspaces of e that do not overlap o.
// If e and o do not overlap, the result is {e}. If o covers e, the result is
// empty. Otherwise (e strictly covers o) the result is the set of siblings
// along the refinement path from e to o; e.g. "0" − "000" = {"001", "01"}.
func (e Expr) Subtract(o Expr) []Expr {
	if !e.Overlaps(o) {
		return []Expr{e}
	}
	if o.Covers(e) {
		return nil
	}
	// e strictly covers o: collect the sibling of each step on the path.
	out := make([]Expr, 0, len(o)-len(e))
	for i := len(e); i < len(o); i++ {
		prefix := o[:i+1]
		sib, _ := prefix.Sibling()
		out = append(out, sib)
	}
	return out
}

// CommonPrefix returns the longest expression covering both e and o.
func (e Expr) CommonPrefix(o Expr) Expr {
	n := len(e)
	if len(o) < n {
		n = len(o)
	}
	i := 0
	for i < n && e[i] == o[i] {
		i++
	}
	return e[:i]
}

// Truncate returns the expression limited to at most maxLen bisections.
// Truncation coarsens the subspace and is the source of false positives when
// the address space cannot hold the full expression (Section 6.4).
func (e Expr) Truncate(maxLen int) Expr {
	if maxLen < 0 {
		maxLen = 0
	}
	if len(e) <= maxLen {
		return e
	}
	return e[:maxLen]
}

// Compare orders expressions lexicographically with shorter prefixes first.
// It returns -1, 0, or 1.
func (e Expr) Compare(o Expr) int {
	if e == o {
		return 0
	}
	if e < o {
		return -1
	}
	return 1
}

// String implements fmt.Stringer. The whole space prints as "ε".
func (e Expr) String() string {
	if len(e) == 0 {
		return "ε"
	}
	return string(e)
}

// Parse converts a textual dz-expression ("ε" or a 0/1 string) into an Expr.
func Parse(s string) (Expr, error) {
	if s == "ε" || s == "" {
		return Whole, nil
	}
	e := Expr(s)
	if err := e.Validate(); err != nil {
		return "", err
	}
	return e, nil
}

// Set is a collection of dz-expressions describing a (possibly
// disconnected) region of the event space. Sets returned by this package
// are canonical: sorted, with no member covering another and with complete
// sibling pairs merged into their parent.
//
// A Set is an immutable value: no operation writes into an operand, and a
// result may be an operand itself (Intersect returns the covered operand,
// Subtract of nothing returns s, canon its receiver). A caller that wants
// to append to or write into a set it got back must Clone it first.
type Set []Expr

// NewSet builds a canonical set from the given expressions.
func NewSet(exprs ...Expr) Set {
	s := make(Set, len(exprs))
	copy(s, exprs)
	return s.Canonical()
}

// Canonical returns the canonical form of the set: members sorted, covered
// members removed, and complete sibling pairs merged into their parent.
func (s Set) Canonical() Set {
	if len(s) == 0 {
		return nil
	}
	work := make([]Expr, len(s))
	copy(work, s)
	slices.Sort(work)
	return canonicalizeSorted(work)
}

// canonicalizeSorted canonicalises an already sorted slice in place and
// returns it. Two linear passes reach the fixed point:
//
// Covered-member removal compares against the last kept member only: in
// lexicographic order every expression between a prefix and one of its
// extensions is itself an extension of that prefix, so a covering member is
// still "last kept" when the covered one arrives.
//
// The sibling merge keeps its output as a stack: when a merged parent
// completes its own sibling pair the pair merges immediately ("00","01","1"
// → "0","1" → ε in one sweep). A merged parent can never cover a later
// member — such a member would have been covered by one of the children and
// removed by the first pass — so no further passes are needed.
func canonicalizeSorted(work []Expr) Set {
	if len(work) == 0 {
		return nil
	}
	kept := work[:0]
	for _, e := range work {
		if len(kept) > 0 && kept[len(kept)-1].Covers(e) {
			continue
		}
		kept = append(kept, e)
	}
	out := kept[:0]
	for _, e := range kept {
		for len(out) > 0 {
			top := out[len(out)-1]
			if sib, ok := top.Sibling(); ok && sib == e {
				out = out[:len(out)-1]
				e = top[:len(top)-1]
				continue
			}
			break
		}
		out = append(out, e)
	}
	return Set(out)
}

// isCanonical reports whether the set is already in canonical form:
// strictly sorted, no member covering another, no complete sibling pair. In
// a sorted cover-free list both a covering member and a complete sibling
// are always adjacent, so one linear pass is a complete check. The
// merge-based set operations use it to skip re-canonicalising inputs this
// package produced (the overwhelmingly common case).
func (s Set) isCanonical() bool {
	for i := 1; i < len(s); i++ {
		prev, cur := s[i-1], s[i]
		if prev >= cur || prev.Covers(cur) {
			return false
		}
		if sib, ok := prev.Sibling(); ok && sib == cur {
			return false
		}
	}
	return true
}

// canon returns the set itself when already canonical, else its canonical
// form.
func (s Set) canon() Set {
	if s.isCanonical() {
		return s
	}
	return s.Canonical()
}

// IsEmpty reports whether the set describes the empty region.
func (s Set) IsEmpty() bool { return len(s) == 0 }

// Contains reports whether the region of the set covers the expression e.
// It relies on the canonical form (sorted, pairwise disjoint members): at
// most one member can cover e, and every expression between that member
// and e in lexicographic order would share its prefix, so the candidate is
// always the member immediately at or before e.
func (s Set) Contains(e Expr) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] > e })
	return i > 0 && s[i-1].Covers(e)
}

// Overlaps reports whether the set's region overlaps the expression e:
// either some member covers e, or e covers some member. Members covered by
// e form a contiguous lexicographic range starting at the insertion point
// of e (canonical form assumed, as in Contains).
func (s Set) Overlaps(e Expr) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] > e })
	if i > 0 && s[i-1].Covers(e) {
		return true
	}
	return i < len(s) && e.Covers(s[i])
}

// Covers reports whether the region of s covers the entire region of o.
// For canonical operands this is a two-pointer merge: each member of o must
// be covered by a single member of s — members of s that merely tiled an
// o-member between them would have merged during canonicalisation.
func (s Set) Covers(o Set) bool {
	if len(o) == 0 {
		return true
	}
	return s.canon().covers(o.canon())
}

// covers is Covers of two canonical sets.
func (s Set) covers(o Set) bool {
	i := 0
	for _, e := range o {
		// Skipped members cannot cover anything later: extensions of a
		// non-prefix expression below e also sort below e.
		for i < len(s) && s[i] < e && !s[i].Covers(e) {
			i++
		}
		if i == len(s) || !s[i].Covers(e) {
			return false
		}
	}
	return true
}

// Intersect returns the canonical intersection of the two regions. When one
// operand covers the other, the covered operand is the answer and is
// returned as it is, without a merge or a copy.
func (s Set) Intersect(o Set) Set {
	s, o = s.canon(), o.canon()
	switch {
	case len(s) == 0 || len(o) == 0:
		return nil
	case o.covers(s):
		return s
	case s.covers(o):
		return o
	}
	return intersectMerge(s, o)
}

// intersectMerge is the intersection of two canonical sets built afresh.
// Members of a canonical set are pairwise disjoint, so overlapping pairs
// line up in one sorted merge and each overlap is the longer (finer)
// expression of its pair.
func intersectMerge(s, o Set) Set {
	var out []Expr
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		a, b := s[i], o[j]
		switch {
		case a.Covers(b):
			out = append(out, b)
			j++
		case b.Covers(a):
			out = append(out, a)
			i++
		case a < b:
			i++
		default:
			j++
		}
	}
	if len(out) == 0 {
		return nil
	}
	// The merge emits sorted, pairwise-disjoint overlaps; a final pass only
	// re-merges sibling pairs that became complete (e.g. {0} ∩ {00,01}).
	return canonicalizeSorted(out)
}

// IntersectExpr returns the canonical intersection of the region with a
// single expression.
func (s Set) IntersectExpr(e Expr) Set {
	return s.Intersect(Set{e})
}

// Subtract returns the canonical region of s minus the region of o. Both
// canonical member lists are sorted and pairwise disjoint, so one merge
// pass suffices: each member of o either erases, fragments (Expr.Subtract
// siblings), or misses the current member of s, and fragments are carved
// further in place until the pass moves beyond them.
func (s Set) Subtract(o Set) Set {
	if len(o) == 0 {
		return s
	}
	if len(s) == 0 {
		return nil
	}
	s, o = s.canon(), o.canon()
	out := make([]Expr, 0, len(s))
	frags := make([]Expr, 0, 8)
	j := 0
	for _, a := range s {
		for j < len(o) && o[j] < a && !o[j].Covers(a) {
			j++
		}
		if j < len(o) && o[j].Covers(a) {
			continue // a fully erased; o[j] may still cover later members
		}
		if j == len(o) || !a.Covers(o[j]) {
			out = append(out, a)
			continue
		}
		// a strictly covers a run of members of o: carve each out of a's
		// fragment list, flushing fragments the run has moved past — a later
		// subtrahend can never reach back into a flushed fragment.
		frags = append(frags[:0], a)
		fi := 0
		for j < len(o) && a.Covers(o[j]) {
			b := o[j]
			j++
			for fi < len(frags) && frags[fi] < b && !frags[fi].Covers(b) {
				out = append(out, frags[fi])
				fi++
			}
			if fi < len(frags) && frags[fi].Covers(b) {
				repl := frags[fi].Subtract(b)
				slices.Sort(repl)
				frags = append(frags[:fi], append(repl, frags[fi+1:]...)...)
			}
		}
		out = append(out, frags[fi:]...)
	}
	if len(out) == 0 {
		return nil
	}
	return canonicalizeSorted(out)
}

// Union returns the canonical union of the two regions via a sorted merge
// of the two canonical member lists.
func (s Set) Union(o Set) Set {
	s, o = s.canon(), o.canon()
	if len(s) == 0 {
		if len(o) == 0 {
			return nil
		}
		return o.Clone()
	}
	if len(o) == 0 {
		return s.Clone()
	}
	merged := make([]Expr, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		if s[i] <= o[j] {
			merged = append(merged, s[i])
			i++
		} else {
			merged = append(merged, o[j])
			j++
		}
	}
	merged = append(merged, s[i:]...)
	merged = append(merged, o[j:]...)
	return canonicalizeSorted(merged)
}

// Equal reports whether two canonical sets describe the same region.
// Callers should canonicalise first (sets produced by this package are).
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Truncate returns the canonical set with every member truncated to maxLen.
func (s Set) Truncate(maxLen int) Set {
	out := make([]Expr, len(s))
	for i, e := range s {
		out[i] = e.Truncate(maxLen)
	}
	return NewSet(out...)
}

// MaxLen returns the length of the longest member.
func (s Set) MaxLen() int {
	m := 0
	for _, e := range s {
		if len(e) > m {
			m = len(e)
		}
	}
	return m
}

// Fraction returns the fraction of the whole event space covered by the
// region, assuming the set is canonical (members pairwise disjoint).
func (s Set) Fraction() float64 {
	f := 0.0
	for _, e := range s {
		f += 1.0 / float64(uint64(1)<<uint(min(e.Len(), 62)))
	}
	return f
}

// String renders the set as "{dz1, dz2, ...}".
func (s Set) String() string {
	if len(s) == 0 {
		return "{}"
	}
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
