package dz

import (
	"strings"
	"testing"
)

// sanitize maps arbitrary fuzz bytes onto a valid dz expression.
func sanitize(s string, maxLen int) Expr {
	var b strings.Builder
	for i := 0; i < len(s) && b.Len() < maxLen; i++ {
		if s[i]%2 == 0 {
			b.WriteByte('0')
		} else {
			b.WriteByte('1')
		}
	}
	return Expr(b.String())
}

// FuzzExprAlgebra checks the core identities of the expression algebra on
// arbitrary inputs.
func FuzzExprAlgebra(f *testing.F) {
	f.Add("", "")
	f.Add("0", "000")
	f.Add("101", "1")
	f.Add("1100", "0011")
	f.Fuzz(func(t *testing.T, rawA, rawB string) {
		a := sanitize(rawA, 24)
		b := sanitize(rawB, 24)

		// Overlap symmetry.
		if a.Overlaps(b) != b.Overlaps(a) {
			t.Fatalf("overlap not symmetric: %q %q", a, b)
		}
		// Cover ⇒ overlap, and overlap result is the longer expression.
		if a.Covers(b) && !a.Overlaps(b) {
			t.Fatalf("cover without overlap: %q %q", a, b)
		}
		if ov, ok := a.Overlap(b); ok {
			if ov != a && ov != b {
				t.Fatalf("overlap %q is neither input (%q, %q)", ov, a, b)
			}
			if ov.Len() < a.Len() || ov.Len() < b.Len() {
				t.Fatalf("overlap %q shorter than an input", ov)
			}
		}
		// Subtraction: difference never overlaps the subtrahend, and
		// difference ∪ intersection == minuend.
		diff := NewSet(a.Subtract(b)...)
		for _, m := range diff {
			if m.Overlaps(b) {
				t.Fatalf("difference member %q overlaps %q", m, b)
			}
		}
		inter := Set{a}.IntersectExpr(b)
		if !diff.Union(inter).Equal(NewSet(a)) {
			t.Fatalf("subtract/intersect not a partition of %q (b=%q)", a, b)
		}
	})
}

// FuzzSetCanonical checks that canonicalisation is stable and lossless.
func FuzzSetCanonical(f *testing.F) {
	f.Add("0", "1", "01")
	f.Add("0000", "0001", "001")
	f.Fuzz(func(t *testing.T, rawA, rawB, rawC string) {
		s := NewSet(sanitize(rawA, 16), sanitize(rawB, 16), sanitize(rawC, 16))
		if !s.Canonical().Equal(s) {
			t.Fatalf("canonical not idempotent: %v", s)
		}
		// Membership of the inputs is preserved.
		for _, e := range []Expr{sanitize(rawA, 16), sanitize(rawB, 16), sanitize(rawC, 16)} {
			if !s.Contains(e) {
				t.Fatalf("canonical set %v lost member %q", s, e)
			}
		}
		// Binary-search lookups agree with linear scans.
		probe := sanitize(rawA+rawB, 20)
		linear := false
		for _, m := range s {
			if m.Covers(probe) {
				linear = true
			}
		}
		if s.Contains(probe) != linear {
			t.Fatalf("Contains(%q) diverges from linear scan on %v", probe, s)
		}
	})
}

// FuzzDecomposeEncloses checks the enclosing property of the spatial index
// for arbitrary rectangles and budgets.
func FuzzDecomposeEncloses(f *testing.F) {
	f.Add(uint32(0), uint32(7), uint32(3), uint32(5), 6, 8)
	f.Fuzz(func(t *testing.T, lo0, hi0, lo1, hi1 uint32, maxLen, budget int) {
		g := Geometry{Dims: 2, BitsPerDim: 3}
		max := g.DomainSize() - 1
		r := Rect{
			{Lo: lo0 % (max + 1), Hi: hi0 % (max + 1)},
			{Lo: lo1 % (max + 1), Hi: hi1 % (max + 1)},
		}
		for d := range r {
			if r[d].Lo > r[d].Hi {
				r[d].Lo, r[d].Hi = r[d].Hi, r[d].Lo
			}
		}
		if maxLen < 0 {
			maxLen = -maxLen
		}
		maxLen %= g.MaxLen() + 1
		if budget < 1 {
			budget = 1
		}
		budget = budget%64 + 1
		set, err := g.DecomposeLimited(r, maxLen, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(set) > budget {
			t.Fatalf("budget exceeded: %d > %d", len(set), budget)
		}
		// Every corner of the rectangle must be enclosed.
		corners := [][]uint32{
			{r[0].Lo, r[1].Lo}, {r[0].Lo, r[1].Hi},
			{r[0].Hi, r[1].Lo}, {r[0].Hi, r[1].Hi},
		}
		for _, c := range corners {
			e, err := g.EncodePoint(c, g.MaxLen())
			if err != nil {
				t.Fatal(err)
			}
			if !set.Contains(e) {
				t.Fatalf("corner %v escapes decomposition %v of %v", c, set, r)
			}
		}
	})
}

// Overlap returns the overlap of the two subspaces (the longer expression)
// and whether they overlap at all.
func (e Expr) Overlap(o Expr) (Expr, bool) {
	switch {
	case e.Covers(o):
		return o, true
	case o.Covers(e):
		return e, true
	default:
		return "", false
	}
}

// SubtractExpr returns the canonical region of s minus the subspace of e.
func (s Set) SubtractExpr(e Expr) Set {
	return s.Subtract(Set{e})
}
