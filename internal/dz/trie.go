package dz

import "math/bits"

// MaxKeyBits is the number of dz bits a packed trie Key can hold. It equals
// the dz capacity of the IPv6 embedding (128 address bits minus the 16-bit
// ff0e base prefix), so every expression that can exist as a flow-table
// match — and every event destination address — packs losslessly.
const MaxKeyBits = 112

// Key is a dz-expression packed into raw bits: the value form the prefix
// index operates on. Packing happens once per expression (KeyOf) or once
// per packet (the ipmc address converter); all trie traversal below works
// on machine words instead of per-character string compares, and a Key is a
// plain value — building one never allocates.
//
// Bits beyond the length are always zero, so == is a valid equality test.
type Key struct {
	len  uint8
	bits [14]byte
}

// KeyOf packs an expression into a Key. ok is false when the expression
// exceeds MaxKeyBits; the returned Key is then the truncated prefix, which
// callers must not treat as equivalent to the full expression.
func KeyOf(e Expr) (k Key, ok bool) {
	n := len(e)
	ok = n <= MaxKeyBits
	if !ok {
		n = MaxKeyBits
	}
	k.len = uint8(n)
	for i := 0; i < n; i++ {
		if e[i] == '1' {
			k.bits[i>>3] |= 1 << uint(7-i&7)
		}
	}
	return k, ok
}

// KeyFromBits builds a Key from pre-packed big-endian bits (bit 0 is the
// MSB of b[0]). n is clamped to [0, MaxKeyBits]; bits beyond n are cleared
// so the result is normalised. It never allocates.
func KeyFromBits(b [14]byte, n int) Key {
	if n < 0 {
		n = 0
	}
	if n > MaxKeyBits {
		n = MaxKeyBits
	}
	k := Key{len: uint8(n), bits: b}
	// Zero the tail: partial last byte, then whole bytes.
	if r := n & 7; r != 0 {
		k.bits[n>>3] &= ^byte(0) << uint(8-r)
		n += 8 - r
	}
	for i := n >> 3; i < len(k.bits); i++ {
		k.bits[i] = 0
	}
	return k
}

// Len returns the number of dz bits in the key.
func (k Key) Len() int { return int(k.len) }

// Bit returns the i-th bit (0 or 1). i must be < Len().
func (k Key) Bit(i int) byte {
	return (k.bits[i>>3] >> uint(7-i&7)) & 1
}

// Prefix returns the key truncated to at most n bits.
func (k Key) Prefix(n int) Key {
	if n >= int(k.len) {
		return k
	}
	return KeyFromBits(k.bits, n)
}

// Expr unpacks the key back into a string expression (allocates; meant for
// walks and diagnostics, never for the packet path).
func (k Key) Expr() Expr {
	if k.len == 0 {
		return Whole
	}
	buf := make([]byte, k.len)
	for i := range buf {
		buf[i] = '0' + k.Bit(i)
	}
	return Expr(buf)
}

// commonPrefixLen returns the length of the longest common prefix of two
// keys, comparing byte-at-a-time with a leading-zeros count on the first
// mismatch.
func commonPrefixLen(a, b Key) int {
	n := int(a.len)
	if int(b.len) < n {
		n = int(b.len)
	}
	full := n >> 3
	for i := 0; i < full; i++ {
		if x := a.bits[i] ^ b.bits[i]; x != 0 {
			return i<<3 + bits.LeadingZeros8(x)
		}
	}
	if p := full << 3; p < n {
		if x := a.bits[full] ^ b.bits[full]; x != 0 {
			if cpl := p + bits.LeadingZeros8(x); cpl < n {
				return cpl
			}
		}
	}
	return n
}

// Trie is a path-compressed binary trie over packed dz keys — the single
// prefix-index engine of the repo. The flow-table fast path, the
// controller's owning-tree index, and the interdomain covering index all
// consume it.
//
// Every node stores its absolute prefix, so descending compares one
// commonPrefixLen per node (word-wise) and lookups are O(|dz|) with zero
// allocations. The zero value is an empty trie ready for use. A Trie is not
// safe for concurrent mutation; all consumers guard it with their own
// locks.
type Trie[V any] struct {
	root *trieNode[V]
	size int
}

type trieNode[V any] struct {
	key    Key // absolute prefix from the root
	child  [2]*trieNode[V]
	hasVal bool
	val    V
}

// Len returns the number of stored entries.
func (t *Trie[V]) Len() int { return t.size }

// Insert stores v under k, replacing any existing value. It reports
// whether the key was newly inserted.
func (t *Trie[V]) Insert(k Key, v V) bool {
	slot := &t.root
	for {
		n := *slot
		if n == nil {
			*slot = &trieNode[V]{key: k, hasVal: true, val: v}
			t.size++
			return true
		}
		cpl := commonPrefixLen(k, n.key)
		if cpl == int(n.key.len) {
			if cpl == int(k.len) {
				// Exact node: replace or set.
				n.val = v
				if !n.hasVal {
					n.hasVal = true
					t.size++
					return true
				}
				return false
			}
			slot = &n.child[k.Bit(cpl)]
			continue
		}
		// Diverged inside n's compressed path: split at cpl.
		mid := &trieNode[V]{key: k.Prefix(cpl)}
		mid.child[n.key.Bit(cpl)] = n
		if cpl == int(k.len) {
			mid.hasVal = true
			mid.val = v
		} else {
			mid.child[k.Bit(cpl)] = &trieNode[V]{key: k, hasVal: true, val: v}
		}
		*slot = mid
		t.size++
		return true
	}
}

// Get returns the value stored under exactly k.
func (t *Trie[V]) Get(k Key) (V, bool) {
	n := t.root
	for n != nil {
		cpl := commonPrefixLen(k, n.key)
		if cpl < int(n.key.len) {
			break
		}
		if cpl == int(k.len) {
			if n.hasVal {
				return n.val, true
			}
			break
		}
		n = n.child[k.Bit(cpl)]
	}
	var zero V
	return zero, false
}

// Delete removes the entry stored under exactly k, re-compressing the path
// behind it. It reports whether an entry was removed.
func (t *Trie[V]) Delete(k Key) bool {
	slot := &t.root
	var parent **trieNode[V]
	for {
		n := *slot
		if n == nil {
			return false
		}
		cpl := commonPrefixLen(k, n.key)
		if cpl < int(n.key.len) {
			return false
		}
		if cpl == int(k.len) {
			if !n.hasVal {
				return false
			}
			n.hasVal = false
			var zero V
			n.val = zero
			t.size--
			t.contract(slot)
			if parent != nil {
				t.contract(parent)
			}
			return true
		}
		parent = slot
		slot = &n.child[k.Bit(cpl)]
	}
}

// contract removes a valueless node with fewer than two children from the
// path, splicing its only child (if any) into its place.
func (t *Trie[V]) contract(slot **trieNode[V]) {
	n := *slot
	if n == nil || n.hasVal {
		return
	}
	switch {
	case n.child[0] != nil && n.child[1] != nil:
		return // still a branch point
	case n.child[0] != nil:
		*slot = n.child[0]
	case n.child[1] != nil:
		*slot = n.child[1]
	default:
		*slot = nil
	}
}

// LongestPrefix returns the entry with the longest key that is a prefix of
// k (the longest-prefix match of the packet path). It never allocates.
func (t *Trie[V]) LongestPrefix(k Key) (Key, V, bool) {
	var bestK Key
	var bestV V
	found := false
	n := t.root
	for n != nil {
		cpl := commonPrefixLen(k, n.key)
		if cpl < int(n.key.len) {
			break // n's path diverges from k: nothing below is a prefix
		}
		if n.hasVal {
			bestK, bestV, found = n.key, n.val, true
		}
		if cpl == int(k.len) {
			break
		}
		n = n.child[k.Bit(cpl)]
	}
	return bestK, bestV, found
}

// CoversAny reports whether any stored key is a prefix of k, i.e. whether
// the indexed region covers the subspace of k. It never allocates.
func (t *Trie[V]) CoversAny(k Key) bool {
	n := t.root
	for n != nil {
		cpl := commonPrefixLen(k, n.key)
		if cpl < int(n.key.len) {
			return false
		}
		if n.hasVal {
			return true
		}
		if cpl == int(k.len) {
			return false
		}
		n = n.child[k.Bit(cpl)]
	}
	return false
}

// VisitPrefixes calls fn for every stored entry whose key is a prefix of k
// (coarsest first). fn returning false stops the walk.
func (t *Trie[V]) VisitPrefixes(k Key, fn func(Key, V) bool) {
	n := t.root
	for n != nil {
		cpl := commonPrefixLen(k, n.key)
		if cpl < int(n.key.len) {
			return
		}
		if n.hasVal && !fn(n.key, n.val) {
			return
		}
		if cpl == int(k.len) {
			return
		}
		n = n.child[k.Bit(cpl)]
	}
}

// WalkCovered calls fn for every stored entry whose key k covers (k is a
// prefix of the stored key, including k itself), in lexicographic order.
// fn returning false stops the walk.
func (t *Trie[V]) WalkCovered(k Key, fn func(Key, V) bool) {
	n := t.root
	for n != nil {
		cpl := commonPrefixLen(k, n.key)
		if cpl == int(k.len) {
			// k is a prefix of n's path: the whole subtree is covered.
			n.walk(fn)
			return
		}
		if cpl < int(n.key.len) {
			return // diverged before exhausting k: nothing covered here
		}
		n = n.child[k.Bit(cpl)]
	}
}

// VisitOverlaps calls fn for every stored entry whose key overlaps k, in one
// descent: first the proper prefixes of k, coarsest first (VisitPrefixes),
// then the entries k covers, k itself included, in lexicographic order
// (WalkCovered). No entry is visited twice. fn returning false stops the
// walk.
func (t *Trie[V]) VisitOverlaps(k Key, fn func(Key, V) bool) {
	n := t.root
	for n != nil {
		cpl := commonPrefixLen(k, n.key)
		if cpl == int(k.len) {
			n.walk(fn)
			return
		}
		if cpl < int(n.key.len) {
			return
		}
		if n.hasVal && !fn(n.key, n.val) {
			return
		}
		n = n.child[k.Bit(cpl)]
	}
}

// Walk calls fn for every stored entry in lexicographic key order
// (prefixes before their extensions). fn returning false stops the walk.
func (t *Trie[V]) Walk(fn func(Key, V) bool) {
	t.root.walk(fn)
}

func (n *trieNode[V]) walk(fn func(Key, V) bool) bool {
	if n == nil {
		return true
	}
	if n.hasVal && !fn(n.key, n.val) {
		return false
	}
	return n.child[0].walk(fn) && n.child[1].walk(fn)
}
