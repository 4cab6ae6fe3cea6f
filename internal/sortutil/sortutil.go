// Package sortutil holds the sorted-iteration helpers shared by the
// controller, interdomain and transport layers. Deterministic map iteration is what
// keeps reconfiguration order — and with it FlowID assignment and test
// goldens — stable across runs.
package sortutil

import (
	"cmp"
	"slices"
)

// Keys returns the keys of m in ascending order.
func Keys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// KeysBy returns the keys of m in ascending order of rank(value): the way
// back from an id-keyed registry to the order its sequence numbers record.
func KeysBy[K comparable, V any, R cmp.Ordered](m map[K]V, rank func(V) R) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b K) int { return cmp.Compare(rank(m[a]), rank(m[b])) })
	return out
}

// KeysFunc returns the keys of m in the order compare defines, for key
// types with an order of their own (dz.Key.Compare).
func KeysFunc[K comparable, V any](m map[K]V, compare func(a, b K) int) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, compare)
	return out
}
