package space

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pleroma/internal/dz"
)

func mustSchema(t *testing.T, n int) *Schema {
	t.Helper()
	s, err := UniformSchema(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema must fail")
	}
	if _, err := NewSchema(Attribute{Name: "", Bits: 10}); err == nil {
		t.Error("empty name must fail")
	}
	if _, err := NewSchema(
		Attribute{Name: "a", Bits: 10},
		Attribute{Name: "a", Bits: 10},
	); err == nil {
		t.Error("duplicate name must fail")
	}
	if _, err := NewSchema(
		Attribute{Name: "a", Bits: 10},
		Attribute{Name: "b", Bits: 8},
	); err == nil {
		t.Error("mixed widths must fail")
	}
	s, err := NewSchema(Attribute{Name: "x", Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.DomainMax() != 15 {
		t.Errorf("DomainMax=%d, want 15", s.DomainMax())
	}
}

func TestUniformSchema(t *testing.T) {
	s := mustSchema(t, 3)
	if s.Dims() != 3 {
		t.Fatalf("Dims=%d", s.Dims())
	}
	if s.Attribute(1).Name != "attr1" {
		t.Errorf("Attribute(1)=%q", s.Attribute(1).Name)
	}
	if s.Geometry().MaxLen() != 30 {
		t.Errorf("MaxLen=%d", s.Geometry().MaxLen())
	}
}

func TestNewEvent(t *testing.T) {
	s := mustSchema(t, 2)
	if _, err := s.NewEvent(1); err == nil {
		t.Error("wrong arity must fail")
	}
	if _, err := s.NewEvent(1, 5000); err == nil {
		t.Error("out-of-domain must fail")
	}
	e, err := s.NewEvent(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if e.Values[0] != 100 || e.Values[1] != 200 {
		t.Errorf("event values %v", e.Values)
	}
}

func TestFilterRectAndMatches(t *testing.T) {
	s := mustSchema(t, 2)
	f := NewFilter().Range("attr0", 100, 200)
	r, err := s.Rect(f)
	if err != nil {
		t.Fatal(err)
	}
	if r[0] != (dz.Interval{Lo: 100, Hi: 200}) {
		t.Errorf("rect[0]=%v", r[0])
	}
	if r[1] != (dz.Interval{Lo: 0, Hi: 1023}) {
		t.Errorf("rect[1]=%v (unconstrained must be full domain)", r[1])
	}

	in, _ := s.NewEvent(150, 999)
	out, _ := s.NewEvent(99, 0)
	if !dz.RectContainsPoint(r, in.Values) || dz.RectContainsPoint(r, out.Values) {
		t.Errorf("rect %v: in %v, out %v", r, in.Values, out.Values)
	}
}

func TestFilterValidation(t *testing.T) {
	s := mustSchema(t, 2)
	if _, err := s.Rect(NewFilter().Range("ghost", 0, 1)); err == nil {
		t.Error("unknown attribute must fail")
	}
	if _, err := s.Rect(NewFilter().Range("attr0", 5, 1)); err == nil {
		t.Error("empty range must fail")
	}
	if _, err := s.Rect(NewFilter().Range("attr0", 0, 4096)); err == nil {
		t.Error("out-of-domain range must fail")
	}
}

func TestFilterImmutableBuilder(t *testing.T) {
	base := NewFilter().Range("attr0", 0, 10)
	derived := base.Range("attr1", 5, 6)
	if len(base.Ranges) != 1 {
		t.Error("builder must not mutate the receiver")
	}
	if len(derived.Ranges) != 2 {
		t.Error("derived filter must hold both ranges")
	}
}

func TestDecomposePaperAdvertisement(t *testing.T) {
	// The Figure 2 advertisement on a 2-attribute schema.
	s := mustSchema(t, 2)
	f := NewFilter().Range("attr0", 512, 767)
	set, err := s.DecomposeLimited(f, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := dz.NewSet("110", "100")
	if !set.Equal(want) {
		t.Fatalf("DecomposeLimited=%v, want %v", set, want)
	}
}

func TestEncodeEvent(t *testing.T) {
	s := mustSchema(t, 2)
	e, _ := s.NewEvent(0, 1023)
	expr, err := s.Encode(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	if expr != "0101" {
		t.Errorf("Encode=%q, want 0101", expr)
	}
}

func TestProject(t *testing.T) {
	s := mustSchema(t, 4)
	p, err := s.Project([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dims() != 2 || p.Attribute(0).Name != "attr2" || p.Attribute(1).Name != "attr0" {
		t.Errorf("projection wrong: %v %v", p.Attribute(0), p.Attribute(1))
	}
	if _, err := s.Project(nil); err == nil {
		t.Error("empty projection must fail")
	}
	if _, err := s.Project([]int{9}); err == nil {
		t.Error("out-of-range projection must fail")
	}

	e, _ := s.NewEvent(1, 2, 3, 4)
	pe := e.Project([]int{2, 0})
	if pe.Values[0] != 3 || pe.Values[1] != 1 {
		t.Errorf("projected event %v", pe.Values)
	}
}

func TestFilterString(t *testing.T) {
	f := NewFilter().Range("b", 1, 2).Range("a", 3, 4)
	if got := f.String(); got != "a∈[3,4] ∧ b∈[1,2]" {
		t.Errorf("String()=%q", got)
	}
	if got := NewFilter().String(); got != "⊤" {
		t.Errorf("empty String()=%q", got)
	}
}

// TestPropertyDecomposeEnclosesMatches: any event matching the filter is
// covered by the filter's DZ set (no false negatives), for any maxLen and
// any subspace budget.
func TestPropertyDecomposeEnclosesMatches(t *testing.T) {
	s := mustSchema(t, 3)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		filt := NewFilter()
		for d := 0; d < 3; d++ {
			if r.Intn(2) == 0 {
				continue
			}
			a := uint32(r.Intn(1024))
			b := uint32(r.Intn(1024))
			if a > b {
				a, b = b, a
			}
			filt = filt.Range(s.Attribute(d).Name, a, b)
		}
		maxLen := 1 + r.Intn(20)
		set, err := s.DecomposeLimited(filt, maxLen, 1+r.Intn(64))
		if err != nil {
			return false
		}
		rect, err := s.Rect(filt)
		if err != nil {
			return false
		}
		for i := 0; i < 40; i++ {
			vals := make([]uint32, 3)
			for d := range vals {
				span := rect[d].Hi - rect[d].Lo + 1
				vals[d] = rect[d].Lo + uint32(r.Intn(int(span)))
			}
			ev := Event{Values: vals}
			expr, err := s.Encode(ev, s.Geometry().MaxLen())
			if err != nil {
				return false
			}
			if !set.Contains(expr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDecomposeRectAndLimitedVariants(t *testing.T) {
	s := mustSchema(t, 2)
	r, err := s.Rect(NewFilter().Range("attr0", 512, 767))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := s.Geometry().Decompose(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := s.DecomposeRectLimited(r, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Equal(limited) {
		t.Errorf("exact=%v limited=%v", exact, limited)
	}
	viaFilter, err := s.DecomposeLimited(NewFilter().Range("attr0", 512, 767), 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !viaFilter.Equal(exact) {
		t.Errorf("filter path=%v, want %v", viaFilter, exact)
	}
	// Budget of 1 collapses to the whole space.
	one, err := s.DecomposeRectLimited(r, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Errorf("budget 1 gave %v", one)
	}
	// Error paths.
	if _, err := s.DecomposeLimited(NewFilter().Range("ghost", 0, 1), 3, 4); err == nil {
		t.Error("unknown attribute must fail")
	}
	if _, err := s.DecomposeRectLimited(r, 3, 0); err == nil {
		t.Error("zero budget must fail")
	}
	if _, err := s.DecomposeRectLimited(dz.Rect{{Lo: 0, Hi: 1}}, 3, 4); err == nil {
		t.Error("wrong dims must fail")
	}
}

func TestMatchesErrorPath(t *testing.T) {
	s := mustSchema(t, 2)
	if _, err := s.Encode(Event{Values: []uint32{1}}, 4); err == nil {
		t.Error("wrong arity must fail")
	}
	if _, err := s.DecomposeLimited(NewFilter().Range("ghost", 0, 1), 4, 16); err == nil {
		t.Error("decompose with unknown attribute must fail")
	}
}
