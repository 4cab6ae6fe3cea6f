// Package space models the content-based event space of PLEROMA: a schema
// of named attributes with integer domains, events as attribute-value
// pairs, and subscriptions/advertisements as conjunctions of per-attribute
// range filters. It bridges the application-facing content model to the
// dz-expression spatial index of package dz (Section 2 of the paper).
package space

import (
	"fmt"
	"sort"
	"strings"

	"pleroma/internal/dz"
)

// Attribute describes one dimension of the event space.
type Attribute struct {
	// Name identifies the attribute, e.g. "price".
	Name string
	// Bits is the width of the attribute domain: values are in
	// [0, 2^Bits). The paper's evaluation uses domains of [0,1023],
	// i.e. 10 bits.
	Bits int
}

// Schema is an ordered list of attributes defining the event space Ω.
// The order determines the bisection cycle of the spatial index.
type Schema struct {
	attrs   []Attribute
	index   map[string]int
	geom    dz.Geometry
	uniform bool
}

// DefaultBits is the attribute width used by the paper's evaluation
// (domain [0, 1023]).
const DefaultBits = 10

// NewSchema builds a schema from the given attributes. All attributes must
// currently share the same bit width (the dz geometry bisects dimensions
// uniformly); mixed widths are rejected.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("space: schema needs at least one attribute")
	}
	index := make(map[string]int, len(attrs))
	bits := attrs[0].Bits
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("space: attribute %d has empty name", i)
		}
		if _, dup := index[a.Name]; dup {
			return nil, fmt.Errorf("space: duplicate attribute %q", a.Name)
		}
		if a.Bits != bits {
			return nil, fmt.Errorf("space: attribute %q has %d bits, expected uniform %d",
				a.Name, a.Bits, bits)
		}
		index[a.Name] = i
	}
	geom, err := dz.NewGeometry(len(attrs), bits)
	if err != nil {
		return nil, fmt.Errorf("space: %w", err)
	}
	return &Schema{
		attrs:   append([]Attribute(nil), attrs...),
		index:   index,
		geom:    geom,
		uniform: true,
	}, nil
}

// UniformSchema builds a schema of n attributes named "attr0".."attrN-1"
// with DefaultBits width each — the shape used throughout the paper's
// evaluation (up to 10 attributes, domain [0,1023]).
func UniformSchema(n int) (*Schema, error) {
	attrs := make([]Attribute, n)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("attr%d", i), Bits: DefaultBits}
	}
	return NewSchema(attrs...)
}

// Dims returns the number of attributes.
func (s *Schema) Dims() int { return len(s.attrs) }

// Attribute returns the attribute at position i.
func (s *Schema) Attribute(i int) Attribute { return s.attrs[i] }

// Geometry returns the dz geometry induced by the schema.
func (s *Schema) Geometry() dz.Geometry { return s.geom }

// DomainMax returns the largest value of each attribute domain.
func (s *Schema) DomainMax() uint32 { return s.geom.DomainSize() - 1 }

// Project returns a schema restricted to the attribute positions in dims
// (in the given order). It is used by dimension selection (Section 5) to
// re-index the event space over the selected dimensions Ω_D.
func (s *Schema) Project(dims []int) (*Schema, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("space: projection needs at least one dimension")
	}
	attrs := make([]Attribute, len(dims))
	for i, d := range dims {
		if d < 0 || d >= len(s.attrs) {
			return nil, fmt.Errorf("space: projection dimension %d out of range [0,%d)", d, len(s.attrs))
		}
		attrs[i] = s.attrs[d]
	}
	return NewSchema(attrs...)
}

// Event is a point in the event space: one value per schema attribute.
type Event struct {
	// Values holds the attribute values in schema order.
	Values []uint32
}

// NewEvent constructs an event after validating it against the schema. The
// event holds a private copy of values.
func (s *Schema) NewEvent(values ...uint32) (Event, error) {
	if err := s.Check(values); err != nil {
		return Event{}, err
	}
	return Event{Values: append([]uint32(nil), values...)}, nil
}

// Check validates values as an event of the schema — one value per
// attribute, each within the domain — without copying them.
func (s *Schema) Check(values []uint32) error {
	if len(values) != s.Dims() {
		return fmt.Errorf("space: event has %d values, schema has %d attributes",
			len(values), s.Dims())
	}
	for i, v := range values {
		if v > s.DomainMax() {
			return fmt.Errorf("space: value %d of attribute %q exceeds domain max %d",
				v, s.attrs[i].Name, s.DomainMax())
		}
	}
	return nil
}

// Project maps the event into a projected schema given the dimension list
// used to build that schema.
func (e Event) Project(dims []int) Event {
	vals := make([]uint32, len(dims))
	for i, d := range dims {
		vals[i] = e.Values[d]
	}
	return Event{Values: vals}
}

// EncodeKey returns the dz of the given length enclosing the event, packed:
// the form publish admission makes once per event and the data path carries
// from there to the subscriber's handler. Events are published with a dz of
// maximum length (Section 2); shorter lengths model the Ldz address-space
// truncation. It fails for a length (clamped to the geometry's) that no
// event address can carry, dz.MaxKeyBits.
func (s *Schema) EncodeKey(e Event, length int) (dz.Key, error) {
	k, err := s.geom.EncodeKey(e.Values, length)
	if err != nil {
		return dz.Key{}, fmt.Errorf("space: encode event: %w", err)
	}
	return k, nil
}

// Encode is the string form of EncodeKey, a boundary function for callers
// that print, decompose or hand-build flows (experiments, dzcalc, probes);
// nothing between publish admission and a handler calls it. Unlike a key,
// the expression may be longer than dz.MaxKeyBits.
func (s *Schema) Encode(e Event, length int) (dz.Expr, error) {
	expr, err := s.geom.EncodePoint(e.Values, length)
	if err != nil {
		return "", fmt.Errorf("space: encode event: %w", err)
	}
	return expr, nil
}

// Filter is a conjunction of closed per-attribute ranges. Attributes absent
// from the map are unconstrained. It is the application-level form of a
// subscription or advertisement.
type Filter struct {
	// Ranges maps attribute name to a closed [lo, hi] interval.
	Ranges map[string][2]uint32
}

// NewFilter builds a filter from alternating name, lo, hi triples expressed
// as a map literal; see Range for a fluent builder.
func NewFilter() Filter {
	return Filter{Ranges: make(map[string][2]uint32)}
}

// Range returns a copy of the filter with an additional range constraint.
func (f Filter) Range(attr string, lo, hi uint32) Filter {
	out := Filter{Ranges: make(map[string][2]uint32, len(f.Ranges)+1)}
	for k, v := range f.Ranges {
		out.Ranges[k] = v
	}
	out.Ranges[attr] = [2]uint32{lo, hi}
	return out
}

// Rect converts the filter to a hyperrectangle over the schema, leaving
// unconstrained attributes at their full domain.
func (s *Schema) Rect(f Filter) (dz.Rect, error) {
	r := s.geom.FullRect()
	for name, iv := range f.Ranges {
		i, ok := s.index[name]
		if !ok {
			return nil, fmt.Errorf("space: filter references unknown attribute %q", name)
		}
		if iv[0] > iv[1] {
			return nil, fmt.Errorf("space: filter range for %q is empty: [%d,%d]", name, iv[0], iv[1])
		}
		if iv[1] > s.DomainMax() {
			return nil, fmt.Errorf("space: filter range for %q exceeds domain max %d", name, s.DomainMax())
		}
		r[i] = dz.Interval{Lo: iv[0], Hi: iv[1]}
	}
	return r, nil
}

// String renders the filter deterministically (attributes sorted by name).
func (f Filter) String() string {
	if len(f.Ranges) == 0 {
		return "⊤"
	}
	names := make([]string, 0, len(f.Ranges))
	for n := range f.Ranges {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		iv := f.Ranges[n]
		parts[i] = fmt.Sprintf("%s∈[%d,%d]", n, iv[0], iv[1])
	}
	return strings.Join(parts, " ∧ ")
}

// DecomposeLimited converts the filter into an enclosing DZ set of at most
// maxSubspaces expressions of at most maxLen bits (Section 2: advertisements
// and subscriptions are approximated by sets of subspaces).
func (s *Schema) DecomposeLimited(f Filter, maxLen, maxSubspaces int) (dz.Set, error) {
	r, err := s.Rect(f)
	if err != nil {
		return nil, err
	}
	set, err := s.geom.DecomposeLimited(r, maxLen, maxSubspaces)
	if err != nil {
		return nil, fmt.Errorf("space: decompose filter: %w", err)
	}
	return set, nil
}

// DecomposeRectLimited converts a hyperrectangle into an enclosing DZ set
// of at most maxSubspaces expressions of at most maxLen bits.
func (s *Schema) DecomposeRectLimited(r dz.Rect, maxLen, maxSubspaces int) (dz.Set, error) {
	set, err := s.geom.DecomposeLimited(r, maxLen, maxSubspaces)
	if err != nil {
		return nil, fmt.Errorf("space: decompose rect: %w", err)
	}
	return set, nil
}
