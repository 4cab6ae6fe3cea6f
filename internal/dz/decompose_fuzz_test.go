package dz

import (
	"encoding/binary"
	"math"
	"testing"
)

// stringDecomposeLimited is the decomposition as it was before the one-buffer
// version, kept as the oracle: a breadth-first queue of (expression, bounds)
// nodes, every split allocating both children's bounds and expressions, and
// the members canonicalised by NewSet. It shares nothing with decompose but
// the geometry; maxSubspaces math.MaxInt is the exact decomposition.
func stringDecomposeLimited(g Geometry, r Rect, maxLen, maxSubspaces int) Set {
	maxLen = max(0, min(maxLen, g.MaxLen()))
	type node struct {
		e      Expr
		bounds Rect
	}
	var done []Expr
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
	return NewSet(done...)
}

// fuzzRect reads one [lo, hi] pair of little-endian uint16s per dimension
// from raw (missing bytes read as zero), reduced into the domain and ordered.
func fuzzRect(g Geometry, raw []byte) Rect {
	r := make(Rect, g.Dims)
	for d := range r {
		var w [4]byte
		if 4*d < len(raw) {
			copy(w[:], raw[4*d:])
		}
		lo := uint32(binary.LittleEndian.Uint16(w[:])) % g.DomainSize()
		hi := uint32(binary.LittleEndian.Uint16(w[2:])) % g.DomainSize()
		r[d] = Interval{Lo: min(lo, hi), Hi: max(lo, hi)}
	}
	return r
}

// FuzzDecomposeLimitedVsString: for any geometry of 1–4 dimensions × 1–12
// bits, any rectangle in it, any maxLen from negative to past MaxLen and any
// budget from 1 up, DecomposeLimited returns the oracle's members, at most
// budget of them, enclosing the rectangle. Budget 0 checks Decompose against
// the oracle without a budget (maxLen capped at 14 to keep it small).
func FuzzDecomposeLimitedVsString(f *testing.F) {
	f.Add(uint8(1), uint8(9), int16(24), uint8(16), []byte{0x40, 0, 0x7f, 0, 0x10, 1, 0x4f, 1})
	f.Add(uint8(0), uint8(3), int16(99), uint8(0), []byte{2, 0, 5, 0})
	f.Fuzz(func(t *testing.T, dims, bits uint8, maxLen int16, budget uint8, raw []byte) {
		g, err := NewGeometry(1+int(dims%4), 1+int(bits%12))
		if err != nil {
			t.Fatal(err)
		}
		r := fuzzRect(g, raw)
		var got, want Set
		if budget == 0 {
			maxLen = min(maxLen, 14)
			want = stringDecomposeLimited(g, r, int(maxLen), math.MaxInt)
			got, err = g.Decompose(r, int(maxLen))
		} else {
			want = stringDecomposeLimited(g, r, int(maxLen), int(budget))
			got, err = g.DecomposeLimited(r, int(maxLen), int(budget))
		}
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%+v %v maxLen %d budget %d: got %v, oracle %v", g, r, maxLen, budget, got, want)
		}
		if budget > 0 && len(got) > int(budget) {
			t.Fatalf("%+v %v maxLen %d: %d members over budget %d", g, r, maxLen, len(got), budget)
		}
		if !got.isCanonical() {
			t.Fatalf("%+v %v: result %v not canonical", g, r, got)
		}
		// Enclosure: every corner of the rectangle and its centre lie in a
		// member.
		p := make([]uint32, g.Dims)
		for c := 0; c <= 1<<g.Dims; c++ {
			for d := range p {
				switch {
				case c == 1<<g.Dims:
					p[d] = r[d].Lo + (r[d].Hi-r[d].Lo)/2
				case c>>d&1 == 0:
					p[d] = r[d].Lo
				default:
					p[d] = r[d].Hi
				}
			}
			e, err := g.EncodePoint(p, g.MaxLen())
			if err != nil {
				t.Fatal(err)
			}
			if !got.Contains(e) {
				t.Fatalf("%+v point %v of %v escapes %v", g, p, r, got)
			}
		}
	})
}
