package dz

import (
	"fmt"
	"slices"
)

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

// Decompose converts a hyperrectangle into a canonical set of dz-expressions
// of length at most maxLen that together *enclose* the rectangle. Subspaces
// fully inside the rectangle are emitted as-is; subspaces that still
// straddle the rectangle boundary when maxLen is reached are emitted whole,
// making the result an enclosing over-approximation (the source of false
// positives studied in Section 6.4 of the paper). It is DecomposeLimited
// without a budget.
func (g Geometry) Decompose(r Rect, maxLen int) (Set, error) {
	if err := g.Validate(r); err != nil {
		return nil, err
	}
	return g.decompose(r, g.clampLen(maxLen), 0), nil
}

// clampLen limits a requested dz length to [0, MaxLen].
func (g Geometry) clampLen(n int) int { return max(0, min(n, g.MaxLen())) }

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
	return g.decompose(r, g.clampLen(maxLen), maxSubspaces), nil
}

// decompose is the one decomposition, breadth-first: a subspace disjoint
// from r is dropped, one inside r, at maxLen, or — with maxSubspaces > 0 —
// one whose split could push the members plus the pending subspaces past
// the budget is kept whole, and any other is split in two. Without a budget
// the kept subspaces are the leaves of the exact decomposition.
//
// It allocates what it returns and nothing else on the sizes a controller
// decomposes: the pending subspaces are a FIFO of bounds, Dims intervals
// each, in one flat slice popped by index and slid down when full (it grows
// only when the live part does); the kept members' expressions go back to
// back into one byte buffer, become one string, and the Set slices it. A
// pending subspace carries no expression: its bits are those of its lowest
// corner (pointBit) and its length is the depth of its level. The slide
// waits until half the FIFO is popped, so each entry moves O(1) times.
func (g Geometry) decompose(r Rect, maxLen, maxSubspaces int) Set {
	dims := g.Dims
	var qbuf [128]Interval
	var bbuf [512]byte
	var ebuf [32]int32
	q := qbuf[:0]
	for range dims {
		q = append(q, Interval{Lo: 0, Hi: g.DomainSize() - 1})
	}
	buf, ends := bbuf[:0], ebuf[:0] // member i is buf[ends[i-1]:ends[i]]
	head := 0                       // q[head:] is pending
	depth, levelEnd := 0, len(q)    // the pending subspaces before levelEnd are depth bits long
	for head < len(q) {
		if head == levelEnd {
			depth, levelEnd = depth+1, len(q)
		}
		if head >= len(q)/2 && len(q)+2*dims > cap(q) {
			n := copy(q, q[head:])
			q, levelEnd, head = q[:n], levelEnd-head, 0
		}
		b := q[head : head+dims]
		head += dims
		disjoint, contained := false, true
		for d := range b {
			if !b[d].Intersects(r[d]) {
				disjoint = true
				break
			}
			if !r[d].ContainsInterval(b[d]) {
				contained = false
			}
		}
		if disjoint {
			continue
		}
		// +2: splitting this subspace could add one extra leaf overall.
		if contained || depth >= maxLen ||
			maxSubspaces > 0 && len(ends)+(len(q)-head)/dims+2 > maxSubspaces {
			for i := range depth {
				buf = append(buf, '0'+g.pointBit(b[i%dims].Lo, i/dims))
			}
			ends = append(ends, int32(len(buf)))
			continue
		}
		d := depth % dims
		mid := b[d].Lo + (b[d].Hi-b[d].Lo)/2
		q = append(q, b...)
		q[len(q)-dims+d].Hi = mid
		q = append(q, b...)
		q[len(q)-dims+d].Lo = mid + 1
	}
	all := string(buf)
	out := make(Set, len(ends))
	start := int32(0)
	for i, end := range ends {
		out[i], start = Expr(all[start:end]), end
	}
	slices.Sort(out)
	return canonicalizeSorted(out)
}
