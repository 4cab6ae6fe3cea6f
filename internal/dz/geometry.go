package dz

import "fmt"

// Geometry binds the dz algebra to a concrete event space: a k-dimensional
// integer hypercube in which every dimension has the domain [0, 2^BitsPerDim).
// Bisections cycle through the dimensions: bit i of a dz-expression refines
// dimension i mod Dims. A dz-expression of length Dims*BitsPerDim identifies
// a single point.
type Geometry struct {
	// Dims is the number of dimensions of the event space (the selected
	// attributes, |Ω_D| in the paper).
	Dims int
	// BitsPerDim is the number of bisections available per dimension; the
	// domain of each dimension is [0, 2^BitsPerDim).
	BitsPerDim int
}

// NewGeometry validates and constructs a Geometry.
func NewGeometry(dims, bitsPerDim int) (Geometry, error) {
	if dims <= 0 {
		return Geometry{}, fmt.Errorf("dz: dims must be positive, got %d", dims)
	}
	if bitsPerDim <= 0 || bitsPerDim > 30 {
		return Geometry{}, fmt.Errorf("dz: bitsPerDim must be in [1,30], got %d", bitsPerDim)
	}
	return Geometry{Dims: dims, BitsPerDim: bitsPerDim}, nil
}

// MaxLen returns the maximum meaningful dz length for this geometry.
func (g Geometry) MaxLen() int { return g.Dims * g.BitsPerDim }

// DomainSize returns the number of values per dimension (2^BitsPerDim).
func (g Geometry) DomainSize() uint32 { return 1 << uint(g.BitsPerDim) }

// Interval is a closed integer interval [Lo, Hi].
type Interval struct {
	Lo, Hi uint32
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v uint32) bool { return iv.Lo <= v && v <= iv.Hi }

// Intersects reports whether two intervals overlap.
func (iv Interval) Intersects(o Interval) bool { return iv.Lo <= o.Hi && o.Lo <= iv.Hi }

// ContainsInterval reports whether o is fully inside iv.
func (iv Interval) ContainsInterval(o Interval) bool { return iv.Lo <= o.Lo && o.Hi <= iv.Hi }

// Rect is an axis-aligned hyperrectangle: one closed interval per dimension.
// It is the geometric form of a content-based subscription or advertisement.
type Rect []Interval

// FullRect returns the rectangle covering the whole event space.
func (g Geometry) FullRect() Rect {
	r := make(Rect, g.Dims)
	for d := range r {
		r[d] = Interval{Lo: 0, Hi: g.DomainSize() - 1}
	}
	return r
}

// Validate checks that the rectangle matches the geometry.
func (g Geometry) Validate(r Rect) error {
	if len(r) != g.Dims {
		return fmt.Errorf("dz: rect has %d dims, geometry has %d", len(r), g.Dims)
	}
	for d, iv := range r {
		if iv.Lo > iv.Hi {
			return fmt.Errorf("dz: rect dim %d has empty interval [%d,%d]", d, iv.Lo, iv.Hi)
		}
		if iv.Hi >= g.DomainSize() {
			return fmt.Errorf("dz: rect dim %d exceeds domain: hi=%d, domain=[0,%d]",
				d, iv.Hi, g.DomainSize()-1)
		}
	}
	return nil
}

// Bounds returns the hyperrectangle identified by the dz-expression. An
// expression longer than MaxLen identifies the same region as its MaxLen
// truncation.
func (g Geometry) Bounds(e Expr) Rect {
	r := g.FullRect()
	n := e.Len()
	if n > g.MaxLen() {
		n = g.MaxLen()
	}
	for i := 0; i < n; i++ {
		d := i % g.Dims
		mid := r[d].Lo + (r[d].Hi-r[d].Lo)/2
		if e[i] == '0' {
			r[d].Hi = mid
		} else {
			r[d].Lo = mid + 1
		}
	}
	return r
}

// pointBit is the one definition of a point's dz bits, shared by the string
// and the packed encoder: bit i of the dz is bit BitsPerDim-1-i/Dims of
// coordinate i%Dims, a coordinate outside the domain clamped to its edge —
// every Dims bits the bisection cycle halves each dimension once more, and
// the halves of an integer interval [0, 2^b) are its binary digits. level is
// i/Dims and v the coordinate i%Dims.
func (g Geometry) pointBit(v uint32, level int) byte {
	return byte(min(v, g.DomainSize()-1) >> uint(g.BitsPerDim-1-level) & 1)
}

// encodeLen checks an encode request and clamps its length to MaxLen.
func (g Geometry) encodeLen(point []uint32, length int) (int, error) {
	if len(point) != g.Dims {
		return 0, fmt.Errorf("dz: point has %d dims, geometry has %d", len(point), g.Dims)
	}
	if length < 0 {
		return 0, fmt.Errorf("dz: negative dz length %d", length)
	}
	return min(length, g.MaxLen()), nil
}

// EncodePoint returns the dz-expression of the given length that encloses
// the point. Coordinates outside the domain are clamped. It is the string
// form of EncodeKey, for lengths no Key can hold and for callers that print
// or decompose; the publish path encodes packed.
func (g Geometry) EncodePoint(point []uint32, length int) (Expr, error) {
	length, err := g.encodeLen(point, length)
	if err != nil {
		return "", err
	}
	buf := make([]byte, length)
	for i, level := 0, 0; i < length; level++ {
		for d := 0; d < g.Dims && i < length; d, i = d+1, i+1 {
			buf[i] = '0' + g.pointBit(point[d], level)
		}
	}
	return Expr(buf), nil
}

// EncodeKey is EncodePoint straight into the packed form: the Key of the
// dz-expression of the given length that encloses the point, without ever
// building the string — no buffer, no allocation. It fails where EncodePoint
// fails, and for a length (after the MaxLen clamp) beyond MaxKeyBits, which
// no Key can hold.
func (g Geometry) EncodeKey(point []uint32, length int) (Key, error) {
	length, err := g.encodeLen(point, length)
	if err != nil {
		return Key{}, err
	}
	if length > MaxKeyBits {
		return Key{}, fmt.Errorf("dz: dz length %d exceeds the %d bits of a key", length, MaxKeyBits)
	}
	k := Key{len: uint8(length)}
	for i, level := 0, 0; i < length; level++ {
		for d := 0; d < g.Dims && i < length; d, i = d+1, i+1 {
			k.bits[i>>3] |= g.pointBit(point[d], level) << uint(7-i&7)
		}
	}
	return k, nil
}

// ContainsPoint reports whether the subspace of e contains the point.
func (g Geometry) ContainsPoint(e Expr, point []uint32) bool {
	b := g.Bounds(e)
	for d, iv := range b {
		if !iv.Contains(point[d]) {
			return false
		}
	}
	return true
}

// Decompose converts a hyperrectangle into a canonical set of dz-expressions
// of length at most maxLen that together *enclose* the rectangle. Subspaces
// fully inside the rectangle are emitted as-is; subspaces that still
// straddle the rectangle boundary when maxLen is reached are emitted whole,
// making the result an enclosing over-approximation (the source of false
// positives studied in Section 6.4 of the paper).
func (g Geometry) Decompose(r Rect, maxLen int) (Set, error) {
	if err := g.Validate(r); err != nil {
		return nil, err
	}
	if maxLen < 0 {
		maxLen = 0
	}
	if maxLen > g.MaxLen() {
		maxLen = g.MaxLen()
	}
	var out []Expr
	g.decompose(r, Whole, g.FullRect(), maxLen, &out)
	return NewSet(out...), nil
}

func (g Geometry) decompose(target Rect, e Expr, bounds Rect, maxLen int, out *[]Expr) {
	contained := true
	for d := range bounds {
		if !bounds[d].Intersects(target[d]) {
			return // disjoint: nothing of the target in this subspace
		}
		if !target[d].ContainsInterval(bounds[d]) {
			contained = false
		}
	}
	if contained || e.Len() >= maxLen {
		*out = append(*out, e)
		return
	}
	d := e.Len() % g.Dims
	mid := bounds[d].Lo + (bounds[d].Hi-bounds[d].Lo)/2
	lower := make(Rect, len(bounds))
	upper := make(Rect, len(bounds))
	copy(lower, bounds)
	copy(upper, bounds)
	lower[d].Hi = mid
	upper[d].Lo = mid + 1
	g.decompose(target, e.Child(0), lower, maxLen, out)
	g.decompose(target, e.Child(1), upper, maxLen, out)
}

// RectOverlaps reports whether two rectangles intersect.
func RectOverlaps(a, b Rect) bool {
	for d := range a {
		if !a[d].Intersects(b[d]) {
			return false
		}
	}
	return true
}

// RectContainsPoint reports whether the rectangle contains the point.
func RectContainsPoint(r Rect, point []uint32) bool {
	for d := range r {
		if !r[d].Contains(point[d]) {
			return false
		}
	}
	return true
}

// DecomposeLimited converts a hyperrectangle into an enclosing set of at
// most maxSubspaces dz-expressions of length at most maxLen. It refines
// the spatial index in level order and stops splitting once the subspace
// budget is exhausted, emitting still-straddling subspaces whole — a
// coarser over-approximation. Real deployments need such a cap because the
// exact decomposition of a wide rectangle in a high-dimensional space can
// contain millions of subspaces (the address-space pressure Section 5 of
// the paper addresses with dimension selection).
func (g Geometry) DecomposeLimited(r Rect, maxLen, maxSubspaces int) (Set, error) {
	if err := g.Validate(r); err != nil {
		return nil, err
	}
	if maxSubspaces < 1 {
		return nil, fmt.Errorf("dz: maxSubspaces must be positive, got %d", maxSubspaces)
	}
	if maxLen < 0 {
		maxLen = 0
	}
	if maxLen > g.MaxLen() {
		maxLen = g.MaxLen()
	}
	type node struct {
		e      Expr
		bounds Rect
	}
	var done []Expr // fully contained or budget-frozen subspaces
	queue := []node{{e: Whole, bounds: g.FullRect()}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		disjoint, contained := false, true
		for d := range n.bounds {
			if !n.bounds[d].Intersects(r[d]) {
				disjoint = true
				break
			}
			if !r[d].ContainsInterval(n.bounds[d]) {
				contained = false
			}
		}
		if disjoint {
			continue
		}
		if contained || n.e.Len() >= maxLen ||
			len(done)+len(queue)+2 > maxSubspaces {
			// +2: splitting this node could add one extra leaf overall.
			done = append(done, n.e)
			continue
		}
		d := n.e.Len() % g.Dims
		mid := n.bounds[d].Lo + (n.bounds[d].Hi-n.bounds[d].Lo)/2
		lower := make(Rect, len(n.bounds))
		upper := make(Rect, len(n.bounds))
		copy(lower, n.bounds)
		copy(upper, n.bounds)
		lower[d].Hi = mid
		upper[d].Lo = mid + 1
		queue = append(queue,
			node{e: n.e.Child(0), bounds: lower},
			node{e: n.e.Child(1), bounds: upper})
	}
	return NewSet(done...), nil
}
