package dz

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
)

// MaxKeyBits is the number of dz bits a packed trie Key can hold. It equals
// the dz capacity of the IPv6 embedding (128 address bits minus the 16-bit
// ff0e base prefix), so every expression that can exist as a flow-table
// match — and every event destination address — packs losslessly.
const MaxKeyBits = 112

// Key is a dz-expression packed into raw bits: the value form the prefix
// index operates on, and the only form of an event's dz on the data path.
// Packing happens once per expression (KeyOf), once per published event
// (Geometry.EncodeKey, straight from the coordinates) or once per address
// written into a packet (the ipmc address converter); all trie traversal
// below works on machine words instead of per-character string compares, and
// a Key is a plain value — building one never allocates.
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

// clearFrom zeroes the bits at n and beyond, as two overlapping 64-bit
// words: bits 0–63 and bits 48–111. n must be in [0, MaxKeyBits].
func (k *Key) clearFrom(n int) {
	if n >= MaxKeyBits {
		return
	}
	// Both loads before either store: the words share two bytes.
	lo := binary.BigEndian.Uint64(k.bits[6:]) &^ (^uint64(0) >> max(n-48, 0))
	if n < 64 {
		hi := binary.BigEndian.Uint64(k.bits[:8]) &^ (^uint64(0) >> n)
		binary.BigEndian.PutUint64(k.bits[:8], hi)
	}
	binary.BigEndian.PutUint64(k.bits[6:], lo)
}

// Len returns the number of dz bits in the key.
func (k Key) Len() int { return int(k.len) }

// Bits returns the packed bits, big-endian like KeyFromBits takes them (bit 0
// is the MSB of [0]); the bits beyond Len() are zero.
func (k Key) Bits() [14]byte { return k.bits }

// Bit returns the i-th bit (0 or 1). i must be < Len().
func (k Key) Bit(i int) byte {
	return (k.bits[i>>3] >> uint(7-i&7)) & 1
}

// Prefix returns the key truncated to at most n bits.
func (k Key) Prefix(n int) Key {
	if n >= int(k.len) {
		return k
	}
	n = max(n, 0)
	k.len = uint8(n)
	k.clearFrom(n)
	return k
}

// Compare orders keys as Expr.Compare orders their expressions: by the bits
// both hold, then the shorter — the prefix — first. It returns -1, 0 or +1
// and never allocates.
func (k Key) Compare(o Key) int {
	n := int(min(k.len, o.len))
	a, b := k.Prefix(n), o.Prefix(n)
	if c := bytes.Compare(a.bits[:], b.bits[:]); c != 0 {
		return c
	}
	return cmp.Compare(k.len, o.len)
}

// Covers reports whether k is a prefix of o (k's subspace contains o's), as
// Expr.Covers does for their expressions.
func (k Key) Covers(o Key) bool {
	return k.len <= o.len && o.Prefix(int(k.len)) == k
}

// Expr unpacks the key back into a string expression (allocates the string;
// meant for walks, diagnostics and encoders, never for the packet path).
func (k Key) Expr() Expr {
	var buf [MaxKeyBits]byte
	for i := range int(k.len) {
		buf[i] = '0' + k.Bit(i)
	}
	return Expr(buf[:k.len]) // the string is the one allocation; none for Whole
}

// stride is the number of dz bits one trie node consumes.
const stride = 4

// maxDepth is the depth of the deepest node: a key of MaxKeyBits bits is the
// empty prefix of the node MaxKeyBits/stride strides below the root.
const maxDepth = MaxKeyBits / stride

// nibble returns the d-th group of stride bits of k. d must be below
// maxDepth; bits beyond Len() read as zero.
func (k Key) nibble(d int) uint32 {
	return uint32(k.bits[d>>1]>>(uint(^d&1)<<2)) & 15
}

// strideAt returns what k holds of the stride at depth d as a heap index (a
// leading 1, then the bits): a whole nibble gives 16..31, a key ending inside
// the stride gives its last 0–3 bits as 1..15.
func (k Key) strideAt(d int) uint32 {
	rem := int(k.len) - stride*d
	switch {
	case rem >= stride:
		return 16 | k.nibble(d)
	case rem <= 0:
		return 1
	}
	return 1<<rem | k.nibble(d)>>(stride-rem)
}

// leafAt returns the position bit, in the node at depth d, of the child k's
// d-th nibble leads to.
func (k Key) leafAt(d int) uint32 { return 1 << posOf[16|k.nibble(d)] }

// extend returns k, d whole strides long, extended by the l high bits of nib.
func (k Key) extend(d int, nib uint8, l int) Key {
	if nib != 0 { // the node at maxDepth, past the last byte, only has its empty prefix
		k.bits[d>>1] |= nib << (uint(^d&1) << 2)
	}
	k.len = uint8(stride*d + l)
	return k
}

// Trie is a multi-bit trie over packed dz keys in the tree-bitmap layout —
// the single prefix-index engine of the repo. The flow-table lookup, host
// demux, the controller's contribution and owning-tree indexes, and the
// interdomain covering index all consume it.
//
// A node spans one stride of 4 dz bits: the 15 prefixes of 0–3 bits that end
// inside the stride and the 16 children one whole nibble further down are the
// 31 vertices of a complete binary tree, and node.bits holds one bit per
// vertex, numbered in pre-order. Pre-order makes every question a mask: the
// stored prefixes of a nibble are the set bits on its root-to-leaf path
// (pathTo), the longest is the highest of them, the entries a short key
// covers are a contiguous bit range (under), and ascending bit order is
// lexicographic key order. leafMask separates the two classic bitmaps —
// bits&leafMask is the external (children) one, bits&^leafMask the internal
// (values) one — and a vertex's child or value is found by counting the set
// bits of its kind below it: children and values of a node are contiguous
// blocks of two slabs, addressed by 32-bit index. Nodes store no key and no
// pointer; keys are rebuilt from the descent.
//
// Lookups are O(|dz|/4) dependent loads in one small array, allocate
// nothing and write nothing, so any number of readers may share a trie that
// no one is modifying. The zero value is an empty trie ready for use. A Trie
// is not safe for concurrent mutation; its consumers confine mutation to one
// owner (see DESIGN.md §6). Callbacks must not modify the trie they are
// called from.
type Trie[V any] struct {
	nodes slab[node] // nodes.items[0] is the root once anything was stored
	vals  slab[V]
	size  int
}

// node is one stride of the trie: 12 bytes, no pointers.
type node struct {
	bits  uint32 // pre-order bitmap of stored prefixes and present children
	child uint32 // index in nodes of the first child; the others follow it
	val   uint32 // index in vals of the first value; the others follow it
}

// leafMask is the positions of the 16 children among the 31 pre-order
// positions of a node (checked against posOf in init).
const leafMask uint32 = 0x6CD8D9B0

// The pre-order numbering, tabulated. A heap index names a vertex by its
// bits behind a leading 1 (1 is the stride's empty prefix, 16|n the child of
// nibble n); a position is its rank in pre-order.
var (
	posOf   [32]uint8  // heap index → position
	levelOf [31]uint8  // position → how many bits of the stride the vertex fixes
	nibOf   [31]uint8  // position → those bits, left-aligned in a nibble
	pathTo  [32]uint32 // heap index → bitmap of the vertices on the way to it, itself included
	under   [32]uint32 // heap index → bitmap of its subtree, itself included
)

func init() {
	var leaves uint32
	for h := uint32(1); h < 32; h++ {
		l := bits.Len32(h) - 1
		v := h - 1<<l
		// Each 1 bit at level i skips the 2^(4-i)-1 vertices of the left
		// sibling's subtree; each level adds the vertex itself.
		p := l + int(v<<(5-l)) - bits.OnesCount32(v)
		posOf[h] = uint8(p)
		levelOf[p] = uint8(l)
		nibOf[p] = uint8(v << (stride - l))
		under[h] = (1<<(1<<(5-l)-1) - 1) << p
		if l == stride {
			leaves |= 1 << p
		}
	}
	for h := 1; h < 32; h++ {
		for a := h; a > 0; a >>= 1 {
			pathTo[h] |= 1 << posOf[a]
		}
	}
	if leaves != leafMask {
		panic("dz: leafMask does not match the pre-order numbering")
	}
}

// childAt returns the index of the child whose position bit is leaf.
func (n *node) childAt(leaf uint32) uint32 {
	return n.child + uint32(bits.OnesCount32(n.bits&leafMask&(leaf-1)))
}

// valAt returns the index of the value whose position bit is bit.
func (n *node) valAt(bit uint32) uint32 {
	return n.val + uint32(bits.OnesCount32(n.bits&^leafMask&(bit-1)))
}

// slab hands out blocks of 1 to 16 consecutive items of one backing slice.
// A block of n items occupies n rounded up to a power of two, so most
// single-item changes edit it in place; released blocks are zeroed and kept
// on a free list per capacity, so a slab whose population is steady neither
// grows nor allocates.
type slab[T any] struct {
	items []T
	free  [stride + 1][]uint32 // free[c]: starts of the released blocks of capacity 1<<c
}

// class returns the capacity class of a block of n items.
func class(n int) int { return bits.Len(uint(n - 1)) }

func (s *slab[T]) alloc(n int) uint32 {
	c := class(n)
	if f := s.free[c]; len(f) > 0 {
		s.free[c] = f[:len(f)-1]
		return f[len(f)-1]
	}
	at := len(s.items)
	s.items = slices.Grow(s.items, 1<<c)[:at+1<<c] // never written beyond len: zero
	return uint32(at)
}

func (s *slab[T]) release(base uint32, n int) {
	clear(s.items[base : int(base)+n])
	c := class(n)
	s.free[c] = append(s.free[c], base)
}

// full reports whether a block of n items has no slack: n fills its capacity
// or there is no block.
func full(n int) bool { return n&(n-1) == 0 }

// insert opens a slot at offset at of the n-item block at base (none when n
// is 0) and returns the block's new base. The caller fills the slot.
func (s *slab[T]) insert(base uint32, n, at int) uint32 {
	if !full(n) {
		copy(s.items[int(base)+at+1:], s.items[int(base)+at:int(base)+n])
		return base
	}
	to := s.alloc(n + 1)
	copy(s.items[to:], s.items[base:int(base)+at])
	copy(s.items[int(to)+at+1:], s.items[int(base)+at:int(base)+n])
	if n > 0 {
		s.release(base, n)
	}
	return to
}

// remove closes the slot at offset at of the n-item block at base and
// returns the block's new base, 0 when the block is gone.
func (s *slab[T]) remove(base uint32, n, at int) uint32 {
	switch {
	case n == 1:
		s.release(base, 1)
		return 0
	case !full(n - 1): // still more than half of the capacity
		copy(s.items[int(base)+at:], s.items[int(base)+at+1:int(base)+n])
		clear(s.items[int(base)+n-1 : int(base)+n])
		return base
	}
	to := s.alloc(n - 1)
	copy(s.items[to:], s.items[base:int(base)+at])
	copy(s.items[int(to)+at:], s.items[int(base)+at+1:int(base)+n])
	s.release(base, n)
	return to
}

// reset forgets every block, keeping the memory. Every item must have been
// released.
func (s *slab[T]) reset() {
	s.items = s.items[:0]
	for c := range s.free {
		s.free[c] = s.free[c][:0]
	}
}

// Len returns the number of stored entries.
func (t *Trie[V]) Len() int { return t.size }

// Insert stores v under k, replacing any existing value. It reports
// whether the key was newly inserted.
func (t *Trie[V]) Insert(k Key, v V) bool {
	isNew := false
	t.Update(k, func(_ V, ok bool) (V, bool) {
		isNew = !ok
		return v, true
	})
	return isNew
}

// Delete removes the entry stored under exactly k and every node left
// empty behind it. It reports whether an entry was removed.
func (t *Trie[V]) Delete(k Key) bool {
	had := false
	t.Update(k, func(old V, ok bool) (V, bool) {
		had = ok
		return old, false
	})
	return had
}

// Update is the read-modify-write of one key in one descent: fn receives the
// value stored under exactly k (ok false and the zero value when there is
// none) and returns the value to store and whether to keep an entry at all —
// false deletes an existing entry and leaves a missing one missing. Values
// move when the trie changes, so fn gets a copy, never an address.
func (t *Trie[V]) Update(k Key, fn func(old V, ok bool) (v V, keep bool)) {
	// Follow k's whole nibbles as far as nodes exist. have counts the nodes
	// on k's path that do, path holds their indices.
	var path [maxDepth + 1]uint32
	last := int(k.len) / stride // depth of the node holding k
	have := 0
	if len(t.nodes.items) > 0 {
		for have = 1; have <= last; have++ {
			n := &t.nodes.items[path[have-1]]
			leaf := k.leafAt(have - 1)
			if n.bits&leaf == 0 {
				break
			}
			path[have] = n.childAt(leaf)
		}
	}
	bit := uint32(1) << posOf[k.strideAt(last)]
	if have > last {
		if n := &t.nodes.items[path[last]]; n.bits&bit != 0 {
			slot := &t.vals.items[n.valAt(bit)]
			if v, keep := fn(*slot, true); keep {
				*slot = v
			} else {
				t.remove(k, &path, bit)
			}
			return
		}
	}
	var zero V
	v, keep := fn(zero, false)
	if !keep {
		return
	}
	if have == 0 {
		t.nodes.alloc(1) // the root, at index 0
		have = 1
	}
	for ; have <= last; have++ {
		path[have] = t.addChild(path[have-1], k.leafAt(have-1))
	}
	n := &t.nodes.items[path[last]]
	in := n.bits &^ leafMask
	at := bits.OnesCount32(in & (bit - 1))
	n.val = t.vals.insert(n.val, bits.OnesCount32(in), at)
	n.bits |= bit
	t.vals.items[int(n.val)+at] = v
	t.size++
}

// addChild gives node i an empty child at position bit leaf and returns the
// child's index.
func (t *Trie[V]) addChild(i, leaf uint32) uint32 {
	n := t.nodes.items[i]
	ext := n.bits & leafMask
	at := bits.OnesCount32(ext & (leaf - 1))
	base := t.nodes.insert(n.child, bits.OnesCount32(ext), at)
	// insert may have moved the slab, and the slot still holds what was there.
	c := base + uint32(at)
	t.nodes.items[c] = node{}
	t.nodes.items[i].child = base
	t.nodes.items[i].bits |= leaf
	return c
}

// remove drops the value at position bit of the last node on k's path, then
// every node this leaves empty, deepest first; an emptied trie gives all its
// blocks back.
func (t *Trie[V]) remove(k Key, path *[maxDepth + 1]uint32, bit uint32) {
	d := int(k.len) / stride
	n := &t.nodes.items[path[d]]
	in := n.bits &^ leafMask
	n.val = t.vals.remove(n.val, bits.OnesCount32(in), bits.OnesCount32(in&(bit-1)))
	n.bits &^= bit
	t.size--
	for ; d > 0 && t.nodes.items[path[d]].bits == 0; d-- {
		parent := t.nodes.items[path[d-1]]
		leaf := k.leafAt(d - 1)
		ext := parent.bits & leafMask
		base := t.nodes.remove(parent.child, bits.OnesCount32(ext), bits.OnesCount32(ext&(leaf-1)))
		t.nodes.items[path[d-1]].child = base
		t.nodes.items[path[d-1]].bits &^= leaf
	}
	if t.size == 0 {
		// Only the root is left, and it is as zero as the released blocks.
		t.nodes.reset()
		t.vals.reset()
	}
}

// Get returns the value stored under exactly k.
func (t *Trie[V]) Get(k Key) (V, bool) {
	var zero V
	nodes := t.nodes.items
	if len(nodes) == 0 {
		return zero, false
	}
	n := &nodes[0]
	for d := 0; ; d++ {
		h := k.strideAt(d)
		bit := uint32(1) << posOf[h]
		if n.bits&bit == 0 {
			return zero, false
		}
		if h < 16 {
			return t.vals.items[n.valAt(bit)], true
		}
		n = &nodes[n.childAt(bit)]
	}
}

// LongestPrefix returns the entry with the longest key that is a prefix of
// k (the longest-prefix match of the packet path). It never allocates.
func (t *Trie[V]) LongestPrefix(k Key) (Key, V, bool) {
	var zero V
	nodes := t.nodes.items
	if len(nodes) == 0 {
		return Key{}, zero, false
	}
	var (
		best   *node  // deepest node with a stored prefix of k
		bestIn uint32 // its stored prefixes of k
		bestD  int    // its depth
	)
	n := &nodes[0]
	for d := 0; ; d++ {
		m := n.bits & pathTo[k.strideAt(d)]
		if in := m &^ leafMask; in != 0 {
			best, bestIn, bestD = n, in, d
		}
		leaf := m & leafMask
		if leaf == 0 {
			break
		}
		n = &nodes[n.childAt(leaf)]
	}
	if best == nil {
		return Key{}, zero, false
	}
	p := bits.Len32(bestIn) - 1 // deeper vertices of one path have higher positions
	l := stride*bestD + int(levelOf[p])
	k.len = uint8(l) // k.Prefix(l), inlined: this is the packet path
	k.clearFrom(l)
	return k, t.vals.items[best.valAt(1<<p)], true
}

// CoversAny reports whether any stored key is a prefix of k, i.e. whether
// the indexed region covers the subspace of k. It never allocates.
func (t *Trie[V]) CoversAny(k Key) bool {
	found := false
	t.visit(k, true, false, func(Key, V) bool {
		found = true
		return false
	})
	return found
}

// VisitOverlaps calls fn for every stored entry whose key overlaps k, in one
// descent: first the proper prefixes of k, coarsest first, then the entries
// k covers, k itself included, in lexicographic order. No entry is visited
// twice. fn returning false stops the
// walk.
func (t *Trie[V]) VisitOverlaps(k Key, fn func(Key, V) bool) {
	t.visit(k, true, true, fn)
}

// AppendOverlaps appends to dst the values VisitOverlaps would visit for k,
// in the same order, and returns the extended slice. It builds no key and
// calls nothing per entry: the host demultiplexer's per-packet form, which
// wants the values alone. It allocates only when dst must grow.
func (t *Trie[V]) AppendOverlaps(dst []V, k Key) []V {
	if len(t.nodes.items) == 0 {
		return dst
	}
	i := uint32(0)
	for d := 0; ; d++ {
		n := &t.nodes.items[i]
		h := k.strideAt(d)
		if h < 16 {
			return t.appendUnder(dst, i, pathTo[h]|under[h])
		}
		m := n.bits & pathTo[h]
		for in := m &^ leafMask; in != 0; in &= in - 1 {
			dst = append(dst, t.vals.items[n.valAt(in&-in)])
		}
		leaf := m & leafMask
		if leaf == 0 {
			return dst
		}
		i = n.childAt(leaf)
	}
}

// appendUnder is walk for AppendOverlaps: it appends, in position order, the
// values of node i that mask selects and those of every child it selects.
func (t *Trie[V]) appendUnder(dst []V, i uint32, mask uint32) []V {
	n := &t.nodes.items[i]
	for m := n.bits & mask; m != 0; m &= m - 1 {
		bit := m & -m
		if leafMask&bit != 0 {
			dst = t.appendUnder(dst, n.childAt(bit), ^uint32(0))
		} else {
			dst = append(dst, t.vals.items[n.valAt(bit)])
		}
	}
	return dst
}

// visit descends along k, handing fn the stored prefixes of k on the way
// (prefixes) and, from the node k ends in, the entries k covers (covered).
func (t *Trie[V]) visit(k Key, prefixes, covered bool, fn func(Key, V) bool) {
	if len(t.nodes.items) == 0 {
		return
	}
	var cur Key // k's first d strides
	i := uint32(0)
	for d := 0; ; d++ {
		n := &t.nodes.items[i]
		h := k.strideAt(d)
		if h < 16 {
			// k ends at vertex h of this node: its prefixes here are the
			// path to h, what it covers is the subtree of h, and both
			// contain h once.
			var mask uint32
			if prefixes {
				mask = pathTo[h]
			}
			if covered {
				mask |= under[h]
			}
			t.walk(i, d, cur, mask, fn)
			return
		}
		m := n.bits & pathTo[h]
		if prefixes {
			for in := m &^ leafMask; in != 0; in &= in - 1 {
				p := bits.TrailingZeros32(in)
				if !fn(cur.extend(d, nibOf[p], int(levelOf[p])), t.vals.items[n.valAt(1<<p)]) {
					return
				}
			}
		}
		leaf := m & leafMask
		if leaf == 0 {
			return
		}
		cur = cur.extend(d, uint8(h&15), stride)
		i = n.childAt(leaf)
	}
}

// walk visits, in position (= lexicographic) order, the vertices of node i
// that mask selects: fn for a stored prefix, the whole subtree for a child.
// The node is d strides deep and cur is the key of its empty prefix. It
// reports whether fn let the walk finish.
func (t *Trie[V]) walk(i uint32, d int, cur Key, mask uint32, fn func(Key, V) bool) bool {
	n := &t.nodes.items[i]
	for m := n.bits & mask; m != 0; m &= m - 1 {
		p := bits.TrailingZeros32(m)
		bit := uint32(1) << p
		if leafMask&bit != 0 {
			if !t.walk(n.childAt(bit), d+1, cur.extend(d, nibOf[p], stride), ^uint32(0), fn) {
				return false
			}
		} else if !fn(cur.extend(d, nibOf[p], int(levelOf[p])), t.vals.items[n.valAt(bit)]) {
			return false
		}
	}
	return true
}
