// Package workload generates the subscription and event distributions of
// the paper's evaluation (Section 6.1): a uniform model drawing
// subscriptions and events independently at random, and an interest
// popularity model that places a small number of hotspot regions (seven in
// the paper) and draws subscriptions/events around them with zipfian
// popularity. All generators are seeded and deterministic.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"pleroma/internal/dz"
	"pleroma/internal/space"
)

// Model selects the distribution family.
type Model int

// Distribution models of Section 6.1.
const (
	// Uniform draws subscriptions and events independently and uniformly.
	Uniform Model = iota + 1
	// Zipfian draws around hotspot regions with zipfian popularity.
	Zipfian
)

func (m Model) String() string {
	switch m {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	default:
		return "unknown"
	}
}

// Defaults mirroring the paper's setup.
const (
	// DefaultHotspots is the number of hotspot regions (the paper uses 7).
	DefaultHotspots = 7
	// DefaultZipfSkew is the skew parameter of the zipfian popularity.
	DefaultZipfSkew = 1.5
	// DefaultSpread is the hotspot spread as a fraction of the domain.
	DefaultSpread = 0.05
	// DefaultSubWidthMin/Max bound subscription range width as a fraction
	// of the domain.
	DefaultSubWidthMin = 0.02
	DefaultSubWidthMax = 0.25
)

// Option configures a Generator.
type Option func(*Generator)

// WithRestrictedDims confines event values — and the centres of
// subscription ranges — along the given dimensions to a band of the given
// domain fraction around the domain centre. With both sides of the
// workload concentrated, the restricted dimensions carry almost no
// filtering information: the varying-selectivity setup of the paper's
// dimension-selection experiment (Figure 7e).
func WithRestrictedDims(bands map[int]float64) Option {
	return func(g *Generator) {
		g.restricted = make(map[int]float64, len(bands))
		for d, f := range bands {
			g.restricted[d] = f
		}
	}
}

// Generator produces subscriptions and events under one model.
type Generator struct {
	sch        *space.Schema
	r          *rand.Rand
	model      Model
	restricted map[int]float64

	hotspots [][]uint32
	zipf     *rand.Zipf
}

// New creates a generator for the schema under the given model and seed.
func New(sch *space.Schema, model Model, seed int64, opts ...Option) (*Generator, error) {
	if sch == nil {
		return nil, fmt.Errorf("workload: nil schema")
	}
	if model != Uniform && model != Zipfian {
		return nil, fmt.Errorf("workload: unknown model %d", int(model))
	}
	g := &Generator{
		sch:   sch,
		r:     rand.New(rand.NewSource(seed)),
		model: model,
	}
	for _, opt := range opts {
		opt(g)
	}
	if model == Zipfian {
		g.hotspots = make([][]uint32, DefaultHotspots)
		for i := range g.hotspots {
			center := make([]uint32, sch.Dims())
			for d := range center {
				center[d] = uint32(g.r.Intn(int(sch.DomainMax()) + 1))
			}
			g.hotspots[i] = center
		}
		g.zipf = rand.NewZipf(g.r, DefaultZipfSkew, 1, uint64(DefaultHotspots-1))
	}
	return g, nil
}

// Event draws one event.
func (g *Generator) Event() space.Event {
	vals := make([]uint32, g.sch.Dims())
	switch g.model {
	case Zipfian:
		center := g.hotspots[g.zipf.Uint64()]
		for d := range vals {
			vals[d] = g.gaussianAround(center[d])
		}
	default:
		for d := range vals {
			vals[d] = uint32(g.r.Intn(int(g.sch.DomainMax()) + 1))
		}
	}
	// Draw in ascending dimension order: ranging over the map would hand the
	// draws to dimensions in Go's randomised map order, and a seed would no
	// longer fix the event.
	for d := range vals {
		if band, ok := g.restricted[d]; ok {
			vals[d] = g.bandValue(band)
		}
	}
	return space.Event{Values: vals}
}

// Events draws n events.
func (g *Generator) Events(n int) []space.Event {
	out := make([]space.Event, n)
	for i := range out {
		out[i] = g.Event()
	}
	return out
}

// SubscriptionRect draws one subscription hyperrectangle.
func (g *Generator) SubscriptionRect() dz.Rect {
	rect := make(dz.Rect, g.sch.Dims())
	var center []uint32
	if g.model == Zipfian {
		center = g.hotspots[g.zipf.Uint64()]
	}
	domain := float64(g.sch.DomainMax()) + 1
	for d := range rect {
		widthFrac := DefaultSubWidthMin + g.r.Float64()*(DefaultSubWidthMax-DefaultSubWidthMin)
		width := math.Max(1, widthFrac*domain)
		var mid float64
		switch {
		case g.restricted[d] > 0:
			mid = float64(g.bandValue(g.restricted[d]))
			if width < g.restricted[d]*domain*2 {
				width = g.restricted[d] * domain * 2
			}
		case center != nil:
			mid = float64(g.gaussianAround(center[d]))
		default:
			mid = g.r.Float64() * (domain - 1)
		}
		lo := mid - width/2
		hi := mid + width/2
		rect[d] = g.clampInterval(lo, hi)
	}
	return rect
}

// SubscriptionRects draws n subscriptions.
func (g *Generator) SubscriptionRects(n int) []dz.Rect {
	out := make([]dz.Rect, n)
	for i := range out {
		out[i] = g.SubscriptionRect()
	}
	return out
}

// gaussianAround samples a domain value normally distributed around the
// centre with DefaultSpread, clamped to the domain.
func (g *Generator) gaussianAround(center uint32) uint32 {
	domain := float64(g.sch.DomainMax()) + 1
	v := float64(center) + g.r.NormFloat64()*DefaultSpread*domain
	return g.clampValue(v)
}

// bandValue samples uniformly from a band of the given domain fraction
// centred at the domain midpoint.
func (g *Generator) bandValue(band float64) uint32 {
	domain := float64(g.sch.DomainMax()) + 1
	half := math.Max(0.5, band*domain/2)
	mid := domain / 2
	v := mid + (g.r.Float64()*2-1)*half
	return g.clampValue(v)
}

func (g *Generator) clampValue(v float64) uint32 {
	if v < 0 {
		return 0
	}
	if max := float64(g.sch.DomainMax()); v > max {
		return g.sch.DomainMax()
	}
	return uint32(v)
}

func (g *Generator) clampInterval(lo, hi float64) dz.Interval {
	l := g.clampValue(lo)
	h := g.clampValue(hi)
	if l > h {
		l, h = h, l
	}
	return dz.Interval{Lo: l, Hi: h}
}
