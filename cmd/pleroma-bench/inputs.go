package main

import (
	"hash/fnv"
	"math/rand"

	"pleroma"
)

// Fixed shape of the generated inputs (ISSUE 12 "common deployment").
const (
	attrBits   = 10
	domain     = 1 << attrBits
	rectSide   = 64      // subscriptions are rectSide × rectSide rectangles
	ringEvents = 1 << 16 // generated events; the loops cycle through them
)

// inputs is everything a workload hands to the system, generated from the
// seed before the system exists: an event ring, subscription rectangles
// and host placement. The same (seed, workload) pair yields the same
// inputs.
type inputs struct {
	rng *rand.Rand
	// tuples are the event ring; each is a 2-value view into one flat
	// array so the publish loops allocate nothing on the benchmark side.
	tuples [][]uint32
	next   int
}

func newInputs(seed int64, workload string) *inputs {
	h := fnv.New64a()
	h.Write([]byte(workload))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	flat := make([]uint32, 2*ringEvents)
	for i := range flat {
		flat[i] = uint32(rng.Intn(domain))
	}
	in := &inputs{rng: rng, tuples: make([][]uint32, ringEvents)}
	for i := range in.tuples {
		in.tuples[i] = flat[2*i : 2*i+2 : 2*i+2]
	}
	return in
}

// events returns the next n events of the ring and the ring index of the
// first (n divides ringEvents).
func (in *inputs) events(n int) (first int, evs [][]uint32) {
	if in.next+n > ringEvents {
		in.next = 0
	}
	first = in.next
	in.next += n
	return first, in.tuples[first:in.next]
}

// rect is one generated subscription rectangle, inclusive bounds.
type rect struct{ loA, hiA, loB, hiB uint32 }

func (in *inputs) rect() rect {
	a := uint32(in.rng.Intn(domain - rectSide + 1))
	b := uint32(in.rng.Intn(domain - rectSide + 1))
	return rect{a, a + rectSide - 1, b, b + rectSide - 1}
}

func (r rect) contains(a, b uint32) bool {
	return r.loA <= a && a <= r.hiA && r.loB <= b && b <= r.hiB
}

func (r rect) filter() pleroma.Filter {
	return pleroma.NewFilter().Range("a", r.loA, r.hiA).Range("b", r.loB, r.hiB)
}

// mix hashes one (subscription, event) pair; sums of it are the
// order-independent delivery checksums.
func mix(sub int, a, b uint32) uint64 {
	x := uint64(sub+1)<<40 ^ uint64(a)<<20 ^ uint64(b)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
