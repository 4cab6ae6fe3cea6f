package dz

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// benchSizes are the working-set sizes the set-algebra micro-benchmarks
// sweep; future PRs diff these with benchstat (see `make bench`).
var benchSizes = []int{10, 100, 1000}

// randomExprs generates n random expressions with lengths in
// [minLen, minLen+spread]. The benchmarks keep minLen well above log2(n) so
// canonicalisation does not collapse the whole working set into a handful
// of coarse subspaces (which would benchmark the empty case).
func randomExprs(n, minLen, spread int, seed int64) []Expr {
	r := rand.New(rand.NewSource(seed))
	out := make([]Expr, n)
	for i := range out {
		l := minLen + r.Intn(spread+1)
		buf := make([]byte, l)
		for j := range buf {
			buf[j] = byte('0' + r.Intn(2))
		}
		out[i] = Expr(buf)
	}
	return out
}

func BenchmarkSetCanonical(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			raw := Set(randomExprs(n, 18, 6, 42))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = raw.Canonical()
			}
		})
	}
}

func BenchmarkSetSubtract(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := NewSet(randomExprs(n, 18, 6, 1)...)
			o := NewSet(randomExprs(n, 14, 4, 2)...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Subtract(o)
			}
		})
	}
}

func BenchmarkSetUnion(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := NewSet(randomExprs(n, 18, 6, 3)...)
			o := NewSet(randomExprs(n, 18, 6, 4)...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Union(o)
			}
		})
	}
}

// refineSet derives a set overlapping s: every member gets 0–3 extra
// random bits, so intersections and coverage checks do real work instead of
// bailing out on disjoint operands.
func refineSet(s Set, seed int64) Set {
	r := rand.New(rand.NewSource(seed))
	out := make([]Expr, 0, len(s))
	for _, e := range s {
		for k := r.Intn(4); k > 0; k-- {
			e = e.Child(byte(r.Intn(2)))
		}
		out = append(out, e)
	}
	return NewSet(out...)
}

func BenchmarkSetIntersectSized(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := NewSet(randomExprs(n, 18, 6, 5)...)
			o := refineSet(s, 6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Intersect(o)
			}
		})
	}
}

func BenchmarkSetCovers(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := NewSet(randomExprs(n, 14, 4, 7)...)
			o := refineSet(s, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Covers(o)
			}
		})
	}
}

// The trie benchmarks run in two regimes. "hot" loops over one trie, which
// then lives in L1/L2 and shows the instruction cost of a descent. "rr12"
// visits 12 tries round-robin, which is what inproc-fanout does to its 12
// host indexes: every descent finds the cache full of the other eleven, so
// it shows what the layout costs in memory traffic. Each trie has the host
// distribution of that workload, trieBenchKeys distinct keys of 8–20 bits,
// and is probed with 24-bit event keys.
var trieRegimes = []struct {
	name  string
	tries int
}{{"hot", 1}, {"rr12", 12}}

const (
	trieBenchKeys   = 2640
	trieBenchProbes = 4096 // a power of two
)

type trieBench struct {
	tries  []*Trie[*int]
	keys   [][]Key // the keys stored in each trie
	probes []Key
	// bytesPerKey is the heap the tries hold per stored key, values (one
	// pointer each) included.
	bytesPerKey float64
}

func newTrieBench(b *testing.B, tries int) *trieBench {
	tb := &trieBench{keys: make([][]Key, tries), tries: make([]*Trie[*int], tries)}
	for i := range tb.keys {
		tb.keys[i] = distinctKeys(b, randomExprs(2*trieBenchKeys, 8, 12, int64(100+i)), trieBenchKeys)
		tb.tries[i] = new(Trie[*int])
	}
	for _, e := range randomExprs(trieBenchProbes, 24, 0, 99) {
		tb.probes = append(tb.probes, mustKey(b, e))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	val, stored := new(int), 0
	for i, t := range tb.tries {
		for _, k := range tb.keys[i] {
			t.Insert(k, val)
		}
		stored += t.Len()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	tb.bytesPerKey = float64(after.HeapAlloc-before.HeapAlloc) / float64(stored)
	return tb
}

// run times fn over b.N (trie, probe index) pairs, tries taken round-robin.
func (tb *trieBench) run(b *testing.B, fn func(t *Trie[*int], trie, i int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(tb.tries)
		fn(tb.tries[j], j, i)
	}
	b.StopTimer()
	b.ReportMetric(tb.bytesPerKey, "B/key")
}

var trieSink int

func BenchmarkTrieLongestPrefix(b *testing.B) {
	for _, r := range trieRegimes {
		b.Run(r.name, func(b *testing.B) {
			tb := newTrieBench(b, r.tries)
			tb.run(b, func(t *Trie[*int], _, i int) {
				if k, _, ok := t.LongestPrefix(tb.probes[i&(trieBenchProbes-1)]); ok {
					trieSink += k.Len()
				}
			})
		})
	}
}

func BenchmarkTrieVisitOverlaps(b *testing.B) {
	for _, r := range trieRegimes {
		b.Run(r.name, func(b *testing.B) {
			tb := newTrieBench(b, r.tries)
			count := func(Key, *int) bool { trieSink++; return true }
			tb.run(b, func(t *Trie[*int], _, i int) {
				t.VisitOverlaps(tb.probes[i&(trieBenchProbes-1)], count)
			})
		})
	}
}

func BenchmarkTrieGet(b *testing.B) {
	for _, r := range trieRegimes {
		b.Run(r.name, func(b *testing.B) {
			tb := newTrieBench(b, r.tries)
			tb.run(b, func(t *Trie[*int], trie, i int) {
				if _, ok := t.Get(tb.keys[trie][i%trieBenchKeys]); ok {
					trieSink++
				}
			})
		})
	}
}

// BenchmarkTrieInsertDelete removes a stored key and puts it back: the
// steady-state churn of a subscription leaving and joining.
func BenchmarkTrieInsertDelete(b *testing.B) {
	for _, r := range trieRegimes {
		b.Run(r.name, func(b *testing.B) {
			tb := newTrieBench(b, r.tries)
			val := new(int)
			tb.run(b, func(t *Trie[*int], trie, i int) {
				k := tb.keys[trie][i%trieBenchKeys]
				t.Delete(k)
				t.Insert(k, val)
			})
		})
	}
}
