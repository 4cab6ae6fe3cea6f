package dz

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustGeometry(t *testing.T, dims, bits int) Geometry {
	t.Helper()
	g, err := NewGeometry(dims, bits)
	if err != nil {
		t.Fatalf("NewGeometry(%d,%d): %v", dims, bits, err)
	}
	return g
}

func TestNewGeometry(t *testing.T) {
	if _, err := NewGeometry(0, 10); err == nil {
		t.Error("dims=0 must fail")
	}
	if _, err := NewGeometry(2, 0); err == nil {
		t.Error("bits=0 must fail")
	}
	if _, err := NewGeometry(2, 31); err == nil {
		t.Error("bits=31 must fail")
	}
	g := mustGeometry(t, 2, 10)
	if g.MaxLen() != 20 {
		t.Errorf("MaxLen=%d, want 20", g.MaxLen())
	}
	if g.DomainSize() != 1024 {
		t.Errorf("DomainSize=%d, want 1024", g.DomainSize())
	}
}

// TestPaperFigure2 reproduces the decomposition from Figure 2 of the paper:
// two attributes A and B with domain [0,100] (we scale to [0,1023]); the
// advertisement Adv = {A ∈ [50,75], B ∈ [0,100]} decomposes to DZ =
// {110, 100} at dz-length 3.
func TestPaperFigure2(t *testing.T) {
	g := mustGeometry(t, 2, 10)
	// A = [512, 767] is exactly the third quarter of the A axis (paper's
	// [50,75] of [0,100]); B covers the full domain.
	adv := Rect{
		{Lo: 512, Hi: 767}, // dimension A (first bisection dimension)
		{Lo: 0, Hi: 1023},  // dimension B
	}
	got, err := g.Decompose(adv, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := NewSet("110", "100")
	if !got.Equal(want) {
		t.Fatalf("Decompose=%v, want %v", got, want)
	}
}

func TestBounds(t *testing.T) {
	g := mustGeometry(t, 2, 2) // domain [0,3] per dim
	tests := []struct {
		e    Expr
		want Rect
	}{
		{Whole, Rect{{0, 3}, {0, 3}}},
		{"0", Rect{{0, 1}, {0, 3}}},
		{"1", Rect{{2, 3}, {0, 3}}},
		{"10", Rect{{2, 3}, {0, 1}}},
		{"1011", Rect{{3, 3}, {1, 1}}},
		{"101100", Rect{{3, 3}, {1, 1}}}, // beyond MaxLen: same as MaxLen
	}
	for _, tt := range tests {
		got := g.Bounds(tt.e)
		if len(got) != len(tt.want) {
			t.Fatalf("Bounds(%q) len=%d", tt.e, len(got))
		}
		for d := range got {
			if got[d] != tt.want[d] {
				t.Errorf("Bounds(%q)[%d]=%v, want %v", tt.e, d, got[d], tt.want[d])
			}
		}
	}
}

func TestEncodePoint(t *testing.T) {
	g := mustGeometry(t, 2, 2)
	tests := []struct {
		point  []uint32
		length int
		want   Expr
	}{
		{[]uint32{0, 0}, 4, "0000"},
		{[]uint32{3, 3}, 4, "1111"},
		{[]uint32{2, 1}, 4, "1001"},
		{[]uint32{2, 1}, 2, "10"},
		{[]uint32{2, 1}, 0, Whole},
		{[]uint32{2, 1}, 99, "1001"}, // clamped to MaxLen
		{[]uint32{9, 9}, 4, "1111"},  // out-of-domain clamped
	}
	for _, tt := range tests {
		got, err := g.EncodePoint(tt.point, tt.length)
		if err != nil {
			t.Fatalf("EncodePoint(%v,%d): %v", tt.point, tt.length, err)
		}
		if got != tt.want {
			t.Errorf("EncodePoint(%v,%d)=%q, want %q", tt.point, tt.length, got, tt.want)
		}
	}
	if _, err := g.EncodePoint([]uint32{1}, 4); err == nil {
		t.Error("dimension mismatch must fail")
	}
	if _, err := g.EncodePoint([]uint32{1, 1}, -1); err == nil {
		t.Error("negative length must fail")
	}
}

func TestDecomposeValidation(t *testing.T) {
	g := mustGeometry(t, 2, 4)
	if _, err := g.Decompose(Rect{{0, 1}}, 4); err == nil {
		t.Error("wrong dims must fail")
	}
	if _, err := g.Decompose(Rect{{3, 1}, {0, 1}}, 4); err == nil {
		t.Error("empty interval must fail")
	}
	if _, err := g.Decompose(Rect{{0, 99}, {0, 1}}, 4); err == nil {
		t.Error("out-of-domain must fail")
	}
}

func TestDecomposeWholeSpace(t *testing.T) {
	g := mustGeometry(t, 3, 4)
	got, err := g.Decompose(g.FullRect(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(NewSet(Whole)) {
		t.Errorf("full rect must decompose to whole space, got %v", got)
	}
}

func TestDecomposeEnclosing(t *testing.T) {
	// Property: the decomposition encloses the rectangle — every point in
	// the rectangle is contained in some member subspace.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Geometry{Dims: 1 + r.Intn(3), BitsPerDim: 3 + r.Intn(3)}
		rect := make(Rect, g.Dims)
		for d := range rect {
			a := uint32(r.Intn(int(g.DomainSize())))
			b := uint32(r.Intn(int(g.DomainSize())))
			if a > b {
				a, b = b, a
			}
			rect[d] = Interval{Lo: a, Hi: b}
		}
		maxLen := r.Intn(g.MaxLen() + 1)
		set, err := g.Decompose(rect, maxLen)
		if err != nil {
			return false
		}
		// Sample random points inside the rectangle.
		for i := 0; i < 30; i++ {
			p := make([]uint32, g.Dims)
			for d := range p {
				span := rect[d].Hi - rect[d].Lo + 1
				p[d] = rect[d].Lo + uint32(r.Intn(int(span)))
			}
			e, err := g.EncodePoint(p, g.MaxLen())
			if err != nil {
				return false
			}
			if !set.Contains(e.Truncate(maxLenContains(set, e))) && !set.Overlaps(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// maxLenContains is a helper for the enclosing property: set membership is
// judged via overlap, so the truncation level does not matter; we just keep
// the original length.
func maxLenContains(_ Set, e Expr) int { return e.Len() }

func TestDecomposeExactAtFullDepth(t *testing.T) {
	// Property: at maxLen == MaxLen, decomposition is exact — points outside
	// the rectangle are NOT covered by the decomposition.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Geometry{Dims: 1 + r.Intn(2), BitsPerDim: 3}
		rect := make(Rect, g.Dims)
		for d := range rect {
			a := uint32(r.Intn(int(g.DomainSize())))
			b := uint32(r.Intn(int(g.DomainSize())))
			if a > b {
				a, b = b, a
			}
			rect[d] = Interval{Lo: a, Hi: b}
		}
		set, err := g.Decompose(rect, g.MaxLen())
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			p := make([]uint32, g.Dims)
			for d := range p {
				p[d] = uint32(r.Intn(int(g.DomainSize())))
			}
			e, err := g.EncodePoint(p, g.MaxLen())
			if err != nil {
				return false
			}
			inRect := RectContainsPoint(rect, p)
			inSet := set.Contains(e)
			if inRect != inSet {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodeBoundsRoundTrip(t *testing.T) {
	// Property: a point encoded at length L lies within Bounds(expr).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Geometry{Dims: 1 + r.Intn(4), BitsPerDim: 2 + r.Intn(5)}
		p := make([]uint32, g.Dims)
		for d := range p {
			p[d] = uint32(r.Intn(int(g.DomainSize())))
		}
		length := r.Intn(g.MaxLen() + 1)
		e, err := g.EncodePoint(p, length)
		if err != nil {
			return false
		}
		if e.Len() != length {
			return false
		}
		return RectContainsPoint(g.Bounds(e), p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRectHelpers(t *testing.T) {
	a := Rect{{0, 5}, {2, 4}}
	if !RectContainsPoint(a, []uint32{3, 3}) {
		t.Error("point must be inside")
	}
	if RectContainsPoint(a, []uint32{3, 5}) {
		t.Error("point must be outside")
	}
	iv := Interval{Lo: 2, Hi: 6}
	if !iv.ContainsInterval(Interval{Lo: 3, Hi: 6}) {
		t.Error("ContainsInterval failed")
	}
	if iv.ContainsInterval(Interval{Lo: 1, Hi: 4}) {
		t.Error("ContainsInterval false positive")
	}
}

func BenchmarkDecompose(b *testing.B) {
	g := Geometry{Dims: 4, BitsPerDim: 10}
	rect := Rect{{100, 600}, {0, 1023}, {300, 400}, {512, 1000}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Decompose(rect, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodePoint(b *testing.B) {
	g := Geometry{Dims: 8, BitsPerDim: 10}
	p := []uint32{1, 1000, 512, 77, 3, 900, 255, 128}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.EncodePoint(p, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecomposeLimitedRespectsBudget(t *testing.T) {
	g := Geometry{Dims: 5, BitsPerDim: 10}
	rect := Rect{
		{100, 600}, {0, 1023}, {300, 800}, {512, 1000}, {5, 900},
	}
	for _, budget := range []int{1, 4, 16, 64} {
		set, err := g.DecomposeLimited(rect, 25, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(set) > budget {
			t.Errorf("budget %d: got %d subspaces", budget, len(set))
		}
		if set.IsEmpty() {
			t.Errorf("budget %d: empty set", budget)
		}
	}
	if _, err := g.DecomposeLimited(rect, 25, 0); err == nil {
		t.Error("zero budget must fail")
	}
	if _, err := g.DecomposeLimited(Rect{{0, 1}}, 25, 4); err == nil {
		t.Error("wrong dims must fail")
	}
}

func TestDecomposeLimitedEnclosing(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Geometry{Dims: 1 + r.Intn(4), BitsPerDim: 4}
		rect := make(Rect, g.Dims)
		for d := range rect {
			a := uint32(r.Intn(int(g.DomainSize())))
			b := uint32(r.Intn(int(g.DomainSize())))
			if a > b {
				a, b = b, a
			}
			rect[d] = Interval{Lo: a, Hi: b}
		}
		budget := 1 + r.Intn(32)
		maxLen := r.Intn(g.MaxLen() + 1)
		set, err := g.DecomposeLimited(rect, maxLen, budget)
		if err != nil || len(set) > budget {
			return false
		}
		for i := 0; i < 30; i++ {
			p := make([]uint32, g.Dims)
			for d := range p {
				span := rect[d].Hi - rect[d].Lo + 1
				p[d] = rect[d].Lo + uint32(r.Intn(int(span)))
			}
			e, err := g.EncodePoint(p, g.MaxLen())
			if err != nil {
				return false
			}
			if !set.Contains(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDecomposeLimitedAllocs pins what a subscription's decomposition
// allocates in the controller's regime (two 10-bit attributes, L_dz 24,
// 16 subspaces, 64×64 rectangles): the result string and the Set slicing
// it, with the queue and the member buffer on the stack.
func TestDecomposeLimitedAllocs(t *testing.T) {
	const ceiling = 4
	g := Geometry{Dims: 2, BitsPerDim: 10}
	rng := rand.New(rand.NewSource(12))
	for range 50 {
		a, b := uint32(rng.Intn(1024-63)), uint32(rng.Intn(1024-63))
		rect := Rect{{a, a + 63}, {b, b + 63}}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := g.DecomposeLimited(rect, 24, 16); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Fatalf("DecomposeLimited(%v, 24, 16) makes %.0f allocations, ceiling %d", rect, allocs, ceiling)
		}
	}
}

func TestDecomposeLimitedMatchesUnlimitedWhenSmall(t *testing.T) {
	g := Geometry{Dims: 2, BitsPerDim: 10}
	rect := Rect{{512, 767}, {0, 1023}}
	limited, err := g.DecomposeLimited(rect, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := g.Decompose(rect, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !limited.Equal(exact) {
		t.Errorf("limited=%v, exact=%v", limited, exact)
	}
}
