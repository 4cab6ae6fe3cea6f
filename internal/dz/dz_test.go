package dz

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExprValidate(t *testing.T) {
	tests := []struct {
		name    string
		expr    Expr
		wantErr bool
	}{
		{"empty", Whole, false},
		{"zeros", "000", false},
		{"mixed", "1011", false},
		{"letter", "10a1", true},
		{"space", "1 0", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.expr.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate(%q) err=%v, wantErr=%v", tt.expr, err, tt.wantErr)
			}
		})
	}
}

func TestExprCovers(t *testing.T) {
	tests := []struct {
		a, b          Expr
		covers        bool
		overlaps      bool
		overlapResult Expr
	}{
		{Whole, "101", true, true, "101"},
		{"101", Whole, false, true, "101"},
		{"1", "11", true, true, "11"},
		{"11", "1", false, true, "11"},
		{"10", "10", true, true, "10"},
		{"0", "1", false, false, ""},
		{"100", "101", false, false, ""},
		{"000", "0", false, true, "000"},
	}
	for _, tt := range tests {
		if got := tt.a.Covers(tt.b); got != tt.covers {
			t.Errorf("(%q).Covers(%q)=%v, want %v", tt.a, tt.b, got, tt.covers)
		}
		if got := tt.a.Overlaps(tt.b); got != tt.overlaps {
			t.Errorf("(%q).Overlaps(%q)=%v, want %v", tt.a, tt.b, got, tt.overlaps)
		}
		ov, ok := tt.a.Overlap(tt.b)
		if ok != tt.overlaps || (ok && ov != tt.overlapResult) {
			t.Errorf("(%q).Overlap(%q)=(%q,%v), want (%q,%v)",
				tt.a, tt.b, ov, ok, tt.overlapResult, tt.overlaps)
		}
	}
}

func TestExprSubtract(t *testing.T) {
	tests := []struct {
		a, b Expr
		want []Expr
	}{
		// Paper example: 0 − 000 = {001, 01}.
		{"0", "000", []Expr{"001", "01"}},
		{"0", "0", nil},
		{"0", "00", []Expr{"01"}},
		{"0", "1", []Expr{"0"}},
		{"00", "0", nil},
		{Whole, "1", []Expr{"0"}},
		{Whole, "10", []Expr{"11", "0"}},
	}
	for _, tt := range tests {
		got := tt.a.Subtract(tt.b)
		gotSet := NewSet(got...)
		wantSet := NewSet(tt.want...)
		if !gotSet.Equal(wantSet) {
			t.Errorf("(%q).Subtract(%q)=%v, want %v", tt.a, tt.b, gotSet, wantSet)
		}
	}
}

func TestExprSiblingParent(t *testing.T) {
	if _, ok := Whole.Sibling(); ok {
		t.Error("whole space must not have a sibling")
	}
	if _, ok := Whole.Parent(); ok {
		t.Error("whole space must not have a parent")
	}
	sib, ok := Expr("10").Sibling()
	if !ok || sib != "11" {
		t.Errorf("Sibling(10)=(%q,%v), want (11,true)", sib, ok)
	}
	par, ok := Expr("10").Parent()
	if !ok || par != "1" {
		t.Errorf("Parent(10)=(%q,%v), want (1,true)", par, ok)
	}
}

func TestExprTruncateAndCommonPrefix(t *testing.T) {
	if got := Expr("10110").Truncate(3); got != "101" {
		t.Errorf("Truncate=%q, want 101", got)
	}
	if got := Expr("10").Truncate(5); got != "10" {
		t.Errorf("Truncate=%q, want 10", got)
	}
	if got := Expr("10110").Truncate(-1); got != Whole {
		t.Errorf("Truncate(-1)=%q, want whole", got)
	}
	if got := Expr("1011").CommonPrefix("1001"); got != "10" {
		t.Errorf("CommonPrefix=%q, want 10", got)
	}
	if got := Expr("0").CommonPrefix("1"); got != Whole {
		t.Errorf("CommonPrefix=%q, want whole", got)
	}
}

func TestParse(t *testing.T) {
	if e, err := Parse("ε"); err != nil || e != Whole {
		t.Errorf("Parse(ε)=(%q,%v)", e, err)
	}
	if e, err := Parse("0101"); err != nil || e != "0101" {
		t.Errorf("Parse(0101)=(%q,%v)", e, err)
	}
	if _, err := Parse("01x"); err == nil {
		t.Error("Parse(01x) should fail")
	}
}

func TestSetCanonical(t *testing.T) {
	tests := []struct {
		name string
		in   []Expr
		want Set
	}{
		{"empty", nil, nil},
		{"dedup", []Expr{"10", "10"}, Set{"10"}},
		{"covered removed", []Expr{"1", "10", "101"}, Set{"1"}},
		{"siblings merge", []Expr{"0000", "0001"}, Set{"000"}},
		{"cascade merge", []Expr{"00", "010", "011"}, Set{"0"}},
		{"whole from halves", []Expr{"0", "1"}, Set{Whole}},
		{"paper merge example", []Expr{"0000", "0010", "0001", "0011"}, Set{"00"}},
		{"disjoint kept", []Expr{"110", "100"}, Set{"100", "110"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NewSet(tt.in...)
			if !got.Equal(tt.want) {
				t.Fatalf("NewSet(%v)=%v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet("110", "100") // paper's advertisement {110,100}
	b := NewSet("1")

	if a.Intersect(b).IsEmpty() || b.Intersect(a).IsEmpty() {
		t.Fatal("sets must overlap")
	}
	if !b.Covers(a) {
		t.Error("{1} must cover {110,100}")
	}
	if a.Covers(b) {
		t.Error("{110,100} must not cover {1}")
	}
	inter := a.Intersect(b)
	if !inter.Equal(a) {
		t.Errorf("Intersect=%v, want %v", inter, a)
	}
	diff := b.Subtract(a)
	want := NewSet("101", "111")
	if !diff.Equal(want) {
		t.Errorf("Subtract=%v, want %v", diff, want)
	}
	uni := a.Union(diff)
	if !uni.Equal(b) {
		t.Errorf("Union=%v, want %v", uni, b)
	}
}

func TestSetContains(t *testing.T) {
	s := NewSet("10", "01")
	if !s.Contains("101") {
		t.Error("set must contain 101")
	}
	if s.Contains("11") {
		t.Error("set must not contain 11")
	}
	if !s.Overlaps("1") { // "1" overlaps member "10"
		t.Error("set must overlap 1")
	}
}

func TestSetFraction(t *testing.T) {
	tests := []struct {
		s    Set
		want float64
	}{
		{NewSet(Whole), 1.0},
		{NewSet("0"), 0.5},
		{NewSet("00", "01", "10"), 0.75},
		{nil, 0.0},
	}
	for _, tt := range tests {
		if got := tt.s.Fraction(); got != tt.want {
			t.Errorf("Fraction(%v)=%v, want %v", tt.s, got, tt.want)
		}
	}
}

func TestSetTruncate(t *testing.T) {
	s := NewSet("0000", "0010", "111")
	got := s.Truncate(2)
	want := NewSet("00", "11")
	if !got.Equal(want) {
		t.Errorf("Truncate=%v, want %v", got, want)
	}
}

// randomExpr generates a random dz expression of length up to maxLen.
func randomExpr(r *rand.Rand, maxLen int) Expr {
	n := r.Intn(maxLen + 1)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte('0' + r.Intn(2))
	}
	return Expr(buf)
}

func randomSet(r *rand.Rand, maxMembers, maxLen int) Set {
	n := r.Intn(maxMembers + 1)
	exprs := make([]Expr, n)
	for i := range exprs {
		exprs[i] = randomExpr(r, maxLen)
	}
	return NewSet(exprs...)
}

func TestPropertySubtractDisjointAndComplete(t *testing.T) {
	// For any a, b: a.Subtract(b) ∪ (a ∩ b) == a, and the difference never
	// overlaps b.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomExpr(r, 8)
		b := randomExpr(r, 8)
		diff := NewSet(a.Subtract(b)...)
		for _, m := range diff {
			if m.Overlaps(b) {
				return false
			}
		}
		inter := Set{a}.IntersectExpr(b)
		rebuilt := diff.Union(inter)
		return rebuilt.Equal(NewSet(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertySetAlgebra(t *testing.T) {
	// (a − b) ∪ (a ∩ b) == a, (a − b) ∩ b == ∅, a ⊆ a ∪ b.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSet(r, 6, 7)
		b := randomSet(r, 6, 7)
		diff := a.Subtract(b)
		inter := a.Intersect(b)
		if !diff.Union(inter).Equal(a) {
			return false
		}
		if !diff.Intersect(b).IsEmpty() {
			return false
		}
		return a.Union(b).Covers(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCanonicalIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 8, 7)
		return s.Canonical().Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCanonicalNoCoverNoSiblings(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 8, 7)
		for i, a := range s {
			for j, b := range s {
				if i != j && a.Covers(b) {
					return false
				}
			}
			if sib, ok := a.Sibling(); ok {
				for _, b := range s {
					if b == sib {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyIntersectionCommutative also holds Intersect to the merge on
// random canonical pairs, and on pairs where one operand covers the other —
// a ∪ b covers both, a ∩ b is covered by both — where Intersect returns the
// covered operand itself instead of merging.
func TestPropertyIntersectionCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSet(r, 6, 7)
		b := randomSet(r, 6, 7)
		if !a.Intersect(b).Equal(b.Intersect(a)) || !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		for _, o := range []Set{b, a.Union(b), intersectMerge(a, b), a} {
			if !a.Intersect(o).Equal(intersectMerge(a, o)) || !o.Intersect(a).Equal(intersectMerge(o, a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIntersectReturnsCoveredOperand: when one operand covers the other the
// intersection is that operand — the same slice, no allocation — in either
// argument order, and for the single-expression form.
func TestIntersectReturnsCoveredOperand(t *testing.T) {
	coarse := NewSet("0", "10")
	fine := NewSet("001", "01", "1011")
	same := func(a, b Set) bool { return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0] }
	for _, tc := range []struct{ s, o, want Set }{
		{coarse, fine, fine},
		{fine, coarse, fine},
		{fine, fine, fine},
		{Set{Whole}, fine, fine},
	} {
		if got := tc.s.Intersect(tc.o); !same(got, tc.want) {
			t.Errorf("%v ∩ %v = %v, want the operand %v itself", tc.s, tc.o, got, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = tc.s.Intersect(tc.o) }); n != 0 {
			t.Errorf("%v ∩ %v allocates %.0f times", tc.s, tc.o, n)
		}
	}
	if got := (Set{Whole}).IntersectExpr("0110"); !got.Equal(Set{"0110"}) {
		t.Errorf("ε ∩ 0110 = %v", got)
	}
	if got := fine.IntersectExpr(Whole); !same(got, fine) {
		t.Errorf("%v ∩ ε = %v, want the receiver itself", fine, got)
	}
}

func TestSetStringAndClone(t *testing.T) {
	s := NewSet("10", "0")
	if got := s.String(); got != "{0, 10}" {
		t.Errorf("String()=%q", got)
	}
	if got := (Set{}).String(); got != "{}" {
		t.Errorf("empty String()=%q", got)
	}
	c := s.Clone()
	if !c.Equal(s) {
		t.Error("clone must equal original")
	}
	c[0] = "111"
	if s[0] == "111" {
		t.Error("clone must not alias original")
	}
	if (Set)(nil).Clone() != nil {
		t.Error("nil clone must be nil")
	}
}

func TestExprString(t *testing.T) {
	if Whole.String() != "ε" {
		t.Errorf("whole String()=%q", Whole.String())
	}
	if Expr("01").String() != "01" {
		t.Errorf("String()=%q", Expr("01").String())
	}
}

func TestExprCompare(t *testing.T) {
	if Expr("0").Compare("0") != 0 {
		t.Error("equal compare")
	}
	if Expr("0").Compare("1") != -1 {
		t.Error("less compare")
	}
	if Expr("1").Compare("0") != 1 {
		t.Error("greater compare")
	}
}

func BenchmarkSetIntersect(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	s1 := randomSet(r, 16, 20)
	s2 := randomSet(r, 16, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s1.Intersect(s2)
	}
}

func BenchmarkCanonical(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	exprs := make([]Expr, 64)
	for i := range exprs {
		exprs[i] = randomExpr(r, 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewSet(exprs...)
	}
}

// TestPropertyFastSetLookups: the binary-search Contains/Overlaps must
// agree with a linear scan on canonical sets.
func TestPropertyFastSetLookups(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 10, 8)
		for i := 0; i < 30; i++ {
			e := randomExpr(r, 10)
			wantContains, wantOverlaps := false, false
			for _, m := range s {
				if m.Covers(e) {
					wantContains = true
				}
				if m.Overlaps(e) {
					wantOverlaps = true
				}
			}
			if s.Contains(e) != wantContains {
				return false
			}
			if s.Overlaps(e) != wantOverlaps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
