package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/netip"

	"pleroma/internal/dz"
	"pleroma/internal/openflow"
	"pleroma/internal/sortutil"
	"pleroma/internal/topo"
	"pleroma/internal/wire"
)

// This file implements the deterministic controller-state snapshot: a
// canonical byte encoding of everything a standby needs to reconstruct an
// equivalent controller — trees, registries, and the desired-installed
// flow map. Determinism is load-bearing: all maps are written in sorted
// key order and dz sets in their canonical order, so two controllers with
// equal state produce byte-identical snapshots, and snapshot→restore→
// snapshot round-trips to the same digest. Derived state (the contribution
// refcounts, the spanning trees) is recomputed on restore rather than
// serialised.

// Snapshot framing.
const (
	// snapshotMagic marks a controller snapshot stream.
	snapshotMagic = "PLSN"
	// SnapshotVersion is the snapshot codec version.
	SnapshotVersion byte = 1
	// snapshotDigestLen is the length of the trailing SHA-256 digest.
	snapshotDigestLen = sha256.Size
)

// EncodeSnapshot serialises the controller's full control-plane state:
//
//	"PLSN" [version u8] [epoch u32] [seq u64] [partition zigzag]
//	[nextTree uvarint]
//	[trees] [publishers] [subscribers] [installed]
//	[sha256 digest]
//
// Integers are varints unless sized above; every map is emitted in sorted
// key order and every dz set through wire.AppendSet (canonical order), so
// the encoding is a pure function of controller state.
func (c *Controller) EncodeSnapshot() ([]byte, error) {

	buf := append([]byte(nil), snapshotMagic...)
	buf = append(buf, SnapshotVersion)
	buf = binary.BigEndian.AppendUint32(buf, c.epoch)
	buf = binary.BigEndian.AppendUint64(buf, c.jseq)
	buf = binary.AppendVarint(buf, int64(c.partition))
	buf = binary.AppendUvarint(buf, uint64(c.nextTree))

	var err error
	// Trees, sorted by ID.
	buf = binary.AppendUvarint(buf, uint64(len(c.trees)))
	for _, tid := range sortutil.Keys(c.trees) {
		t := c.trees[tid]
		buf = binary.AppendUvarint(buf, uint64(t.id))
		buf = binary.AppendUvarint(buf, uint64(t.root))
		if buf, err = wire.AppendSet(buf, t.set); err != nil {
			return nil, fmt.Errorf("core: snapshot tree %d: %w", t.id, err)
		}
		if buf, err = appendMemberSets(buf, t.pubs); err != nil {
			return nil, fmt.Errorf("core: snapshot tree %d pubs: %w", t.id, err)
		}
		if buf, err = appendMemberSets(buf, t.subs); err != nil {
			return nil, fmt.Errorf("core: snapshot tree %d subs: %w", t.id, err)
		}
	}

	// Publisher registry, sorted by ID.
	buf = binary.AppendUvarint(buf, uint64(len(c.pubs)))
	for _, pid := range sortutil.Keys(c.pubs) {
		p := c.pubs[pid]
		if buf, err = appendClient(buf, p.id, p.ep, p.adv, p.trees); err != nil {
			return nil, fmt.Errorf("core: snapshot publisher %q: %w", pid, err)
		}
	}
	// Subscriber registry, sorted by ID.
	buf = binary.AppendUvarint(buf, uint64(len(c.subs)))
	for _, sid := range sortutil.Keys(c.subs) {
		s := c.subs[sid]
		if buf, err = appendClient(buf, s.id, s.ep, s.sub, s.trees); err != nil {
			return nil, fmt.Errorf("core: snapshot subscriber %q: %w", sid, err)
		}
	}

	// Desired-installed flow map, switches sorted, matches in Key.Compare
	// order: the lexicographic order of their expressions.
	buf = binary.AppendUvarint(buf, uint64(len(c.installed)))
	for _, sw := range sortutil.Keys(c.installed) {
		flows := c.installed[sw]
		buf = binary.AppendUvarint(buf, uint64(sw))
		buf = binary.AppendUvarint(buf, uint64(len(flows)))
		for _, k := range sortutil.KeysFunc(flows, dz.Key.Compare) {
			f := flows[k]
			buf = wire.AppendKey(buf, k)
			buf = binary.AppendUvarint(buf, uint64(f.id))
			buf = binary.AppendUvarint(buf, uint64(k.Len())) // the flow's priority
			buf = binary.AppendUvarint(buf, uint64(len(f.actions)))
			for _, a := range f.actions {
				buf = binary.AppendUvarint(buf, uint64(a.OutPort))
				if a.SetDest.IsValid() {
					buf = append(buf, 1)
					b16 := a.SetDest.As16()
					buf = append(buf, b16[:]...)
				} else {
					buf = append(buf, 0)
				}
			}
		}
	}

	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)
	c.inst.snapshots.Inc()
	c.inst.snapshotBytes.Set(int64(len(buf)))
	return buf, nil
}

// appendMemberSets writes a string→dz.Set map in sorted key order.
func appendMemberSets(buf []byte, m map[string]dz.Set) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	var err error
	for _, id := range sortutil.Keys(m) {
		buf = appendString(buf, id)
		if buf, err = wire.AppendSet(buf, m[id]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendClient writes one registry entry: id, endpoint, dz set, and the
// sorted list of joined trees.
func appendClient(buf []byte, id string, ep endpoint, set dz.Set, trees treeSet) ([]byte, error) {
	buf = appendString(buf, id)
	buf = binary.AppendUvarint(buf, uint64(ep.node))
	buf = binary.AppendUvarint(buf, uint64(ep.viaPort))
	var err error
	if buf, err = wire.AppendSet(buf, set); err != nil {
		return nil, err
	}
	buf = binary.AppendUvarint(buf, uint64(len(trees)))
	for _, tid := range trees {
		buf = binary.AppendUvarint(buf, uint64(tid))
	}
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// SnapshotDigest validates the snapshot framing and returns its SHA-256
// digest (the digest the stream itself carries, verified against the
// content).
func SnapshotDigest(snap []byte) ([snapshotDigestLen]byte, error) {
	var d [snapshotDigestLen]byte
	if len(snap) < len(snapshotMagic)+1+snapshotDigestLen {
		return d, fmt.Errorf("core: snapshot too short (%d bytes)", len(snap))
	}
	if string(snap[:len(snapshotMagic)]) != snapshotMagic {
		return d, fmt.Errorf("core: bad snapshot magic")
	}
	if v := snap[len(snapshotMagic)]; v != SnapshotVersion {
		return d, fmt.Errorf("core: unsupported snapshot version %d", v)
	}
	body, tail := snap[:len(snap)-snapshotDigestLen], snap[len(snap)-snapshotDigestLen:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], tail) {
		return d, fmt.Errorf("core: snapshot digest mismatch")
	}
	copy(d[:], tail)
	return d, nil
}

// snapReader is a cursor over the snapshot body with latching errors, so
// decode code reads linearly and checks once per logical section.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: snapshot: "+format, args...)
	}
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *snapReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes returns the next n bytes, nil once anything failed.
func (r *snapReader) bytes(n uint64, what string) []byte {
	if r.err == nil && uint64(len(r.b)) < n {
		r.fail("truncated %s", what)
	}
	if r.err != nil {
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func (r *snapReader) str() string { return string(r.bytes(r.uvarint(), "string")) }

func (r *snapReader) set() dz.Set {
	if r.err != nil {
		return nil
	}
	s, rest, err := wire.ReadSet(r.b)
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	r.b = rest
	if n := s.MaxLen(); n > dz.MaxKeyBits {
		// A snapshot is outside input; a live controller admits no such set.
		r.fail("dz length %d exceeds %d bits", n, dz.MaxKeyBits)
		return nil
	}
	return s
}

func (r *snapReader) key() dz.Key {
	if r.err != nil {
		return dz.Key{}
	}
	k, rest, err := wire.ReadKey(r.b)
	if err != nil {
		r.fail("%v", err)
		return dz.Key{}
	}
	r.b = rest
	return k
}

func (r *snapReader) memberSets() map[string]dz.Set {
	n := r.uvarint()
	m := make(map[string]dz.Set, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		id := r.str()
		m[id] = r.set()
	}
	return m
}

// RestoreController reconstructs a controller from a snapshot taken by
// EncodeSnapshot. The graph, programmer, and options must describe the
// same deployment the snapshot was taken in (in particular the same
// partition); the restored controller re-derives spanning trees and path
// contributions from the serialised registries and adopts the installed
// map verbatim — it performs no southbound calls, so a follow-up ResyncAll
// reconciles whatever the switches actually hold.
func RestoreController(g *topo.Graph, prog FlowProgrammer, snap []byte, opts ...Option) (*Controller, error) {
	if _, err := SnapshotDigest(snap); err != nil {
		return nil, err
	}
	c, err := NewController(g, prog, opts...)
	if err != nil {
		return nil, err
	}
	body := snap[len(snapshotMagic)+1 : len(snap)-snapshotDigestLen]
	if len(body) < 12 {
		return nil, fmt.Errorf("core: snapshot header truncated")
	}
	epoch := binary.BigEndian.Uint32(body)
	jseq := binary.BigEndian.Uint64(body[4:])
	r := &snapReader{b: body[12:]}

	if part := int(r.varint()); r.err == nil && part != c.partition {
		return nil, fmt.Errorf("core: snapshot of partition %d restored into partition %d", part, c.partition)
	}
	c.epoch = epoch
	c.jseq = jseq
	c.nextTree = TreeID(r.uvarint())

	// Trees: spanning trees are recomputed over the current topology.
	nTrees := r.uvarint()
	for i := uint64(0); i < nTrees && r.err == nil; i++ {
		t := &tree{
			id:   TreeID(r.uvarint()),
			root: topo.NodeID(r.uvarint()),
		}
		t.set = r.set()
		t.pubs = r.memberSets()
		t.subs = r.memberSets()
		if r.err != nil {
			break
		}
		span, err := g.ShortestPathTree(t.root, c.includeFunc())
		if err != nil {
			return nil, fmt.Errorf("core: restore tree %d: %w", t.id, err)
		}
		t.setSpan(span)
		c.trees[t.id] = t
		c.treeIdx.add(t.id, t.set)
		c.inst.treeDz.With(t.id).Set(int64(len(t.set)))
	}

	// Registries.
	nPubs := r.uvarint()
	for i := uint64(0); i < nPubs && r.err == nil; i++ {
		id, ep, set, trees := readClient(r)
		c.pubs[id] = &publisher{id: id, ep: ep, adv: set, trees: trees}
	}
	nSubs := r.uvarint()
	for i := uint64(0); i < nSubs && r.err == nil; i++ {
		id, ep, set, trees := readClient(r)
		c.subs[id] = &subscriber{id: id, ep: ep, sub: set, trees: trees}
	}

	// Installed flow map, adopted verbatim; each instruction set is read into
	// acts and installed as its interned list when it is canonical.
	var acts []openflow.Action
	nSw := r.uvarint()
	for i := uint64(0); i < nSw && r.err == nil; i++ {
		sw := topo.NodeID(r.uvarint())
		nFlows := r.uvarint()
		flows := make(map[dz.Key]installedFlow, nFlows)
		for j := uint64(0); j < nFlows && r.err == nil; j++ {
			k := r.key()
			f := installedFlow{id: openflow.FlowID(r.uvarint())}
			if prio := r.uvarint(); r.err == nil && prio != uint64(k.Len()) {
				r.fail("switch %d flow %s: priority %d, want its length %d", sw, k.Expr(), prio, k.Len())
			}
			nActs := r.uvarint()
			acts = acts[:0]
			for k := uint64(0); k < nActs && r.err == nil; k++ {
				a := openflow.Action{OutPort: openflow.PortID(r.uvarint())}
				if hasDest := r.bytes(1, "action"); hasDest != nil && hasDest[0] != 0 {
					if b16 := r.bytes(16, "action address"); b16 != nil {
						a.SetDest = netip.AddrFrom16([16]byte(b16))
					}
				}
				acts = append(acts, a)
			}
			f.actions = c.adoptActions(sw, acts)
			flows[k] = f
		}
		c.installed[sw] = flows
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}

	// Re-derive the path-contribution state from the canonical registries.
	// Piecewise-accumulated contributions can be finer-grained than this
	// canonical rebuild (same situation as RebuildTrees); the derived
	// forwarding behaviour is identical, and the post-takeover resync
	// rewrites switch tables to the canonical form.
	ch := newChangeSet()
	var rep ReconfigReport
	for _, tid := range sortutil.Keys(c.trees) {
		if err := c.establishTreePaths(c.trees[tid], ch, &rep); err != nil {
			return nil, fmt.Errorf("core: restore: %w", err)
		}
		// The installed map was adopted, not derived: which expressions
		// changed is of no interest.
		c.contribs.apply(ch)
	}
	return c, nil
}

// readClient reads one registry entry written by appendClient.
func readClient(r *snapReader) (string, endpoint, dz.Set, treeSet) {
	id := r.str()
	ep := endpoint{
		node:    topo.NodeID(r.uvarint()),
		viaPort: openflow.PortID(r.uvarint()),
	}
	set := r.set()
	n := r.uvarint()
	var trees treeSet
	for i := uint64(0); i < n && r.err == nil; i++ {
		trees.add(TreeID(r.uvarint()))
	}
	return id, ep, set, trees
}
