package core

import (
	"encoding/binary"

	"pleroma/internal/openflow"
	"pleroma/internal/topo"
)

// actionSets interns the controller's instruction sets: one immutable
// []openflow.Action per (switch, port set). Every flow a switch forwards out
// of the same ports carries the same instructions — the same ports, the same
// terminal rewrites — so it gets the same list: a FatTree(4,4,2) switch of
// the benchmark's fan-out deployment holds up to 920 flows on at most three
// port sets. Flow adds, modifies,
// resync repairs and a restored snapshot's flows all take their list from
// here, and the table keeps it (openflow.Table.TryAdd and Modify); nobody
// writes into a list once it is handed out.
//
// The map is flat, one for the whole controller, and a lookup allocates
// nothing: a port set whose ports are all below 64 is keyed by its bitmask,
// any other by its ports packed into a reused byte buffer. Its lists are
// derived from the graph, so they are dropped when its version moves and on
// RebuildTrees (resetActionSets), and every entry is a port set a flow has
// been installed with since — at most the 2^d−1 non-empty port sets of a
// switch with d ports.
type actionSets struct {
	byMask  map[maskKey][]openflow.Action
	byPorts map[string][]openflow.Action
	key     []byte // byPorts's lookup key, rebuilt in place
	version uint64 // the graph version the lists were derived at
}

// maskKey names a port set of one switch whose ports are all below 64.
type maskKey struct {
	sw    topo.NodeID
	ports uint64
}

// portMask returns the bitmask of ports; ok is false when a port is outside
// [0, 64).
func portMask(ports []openflow.PortID) (mask uint64, ok bool) {
	for _, p := range ports {
		if p < 0 || p >= 64 {
			return 0, false
		}
		mask |= 1 << p
	}
	return mask, true
}

// portsKey is byPorts's key of (sw, ports): every number as a uvarint.
func portsKey(buf []byte, sw topo.NodeID, ports []openflow.PortID) []byte {
	buf = binary.AppendUvarint(buf, uint64(sw))
	for _, p := range ports {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	return buf
}

func (s *actionSets) get(sw topo.NodeID, ports []openflow.PortID) ([]openflow.Action, bool) {
	if mask, ok := portMask(ports); ok {
		acts, ok := s.byMask[maskKey{sw, mask}]
		return acts, ok
	}
	s.key = portsKey(s.key[:0], sw, ports)
	acts, ok := s.byPorts[string(s.key)]
	return acts, ok
}

func (s *actionSets) put(sw topo.NodeID, ports []openflow.PortID, acts []openflow.Action) {
	if mask, ok := portMask(ports); ok {
		if s.byMask == nil {
			s.byMask = make(map[maskKey][]openflow.Action)
		}
		s.byMask[maskKey{sw, mask}] = acts
		return
	}
	if s.byPorts == nil {
		s.byPorts = make(map[string][]openflow.Action)
	}
	s.key = portsKey(s.key[:0], sw, ports)
	s.byPorts[string(s.key)] = acts
}

// actionFor is the instruction forwarding out of one port, with the
// terminal destination rewrite on a host-facing port.
func (c *Controller) actionFor(sw topo.NodeID, port openflow.PortID) openflow.Action {
	a := openflow.Action{OutPort: port}
	if peer, ok := c.g.PortToPeer(sw, port); ok {
		if n, err := c.g.Node(peer); err == nil && n.Kind == topo.KindHost {
			a.SetDest = c.hostAddr(peer)
		}
	}
	return a
}

// actionsFor returns the instruction set of a sorted, non-empty port set of
// sw: the interned list, built on its first use. Callers must not write it.
func (c *Controller) actionsFor(sw topo.NodeID, ports []openflow.PortID) []openflow.Action {
	if c.actions.version != c.g.Version() {
		c.resetActionSets()
	}
	if acts, ok := c.actions.get(sw, ports); ok {
		return acts
	}
	acts := make([]openflow.Action, len(ports))
	for i, port := range ports {
		acts[i] = c.actionFor(sw, port)
	}
	c.actions.put(sw, ports, acts)
	return acts
}

// canonicalPorts appends to dst the port set of acts and reports whether
// acts is exactly what actionsFor builds for it on sw: ascending distinct
// ports, each with actionFor's instruction.
func (c *Controller) canonicalPorts(dst []openflow.PortID, sw topo.NodeID, acts []openflow.Action) ([]openflow.PortID, bool) {
	for i, a := range acts {
		if (i > 0 && a.OutPort <= acts[i-1].OutPort) || a != c.actionFor(sw, a.OutPort) {
			return dst, false
		}
		dst = append(dst, a.OutPort)
	}
	return dst, len(acts) > 0
}

// resetActionSets drops the interned lists and re-derives them from the
// installed flows: an installed list that is still canonical becomes its
// port set's list again, so flows installed before and after the reset keep
// sharing one, and a port set no flow holds any more is forgotten.
func (c *Controller) resetActionSets() {
	clear(c.actions.byMask)
	clear(c.actions.byPorts)
	c.actions.version = c.g.Version()
	var ports []openflow.PortID
	for sw, flows := range c.installed {
		for _, fl := range flows {
			var ok bool
			if ports, ok = c.canonicalPorts(ports[:0], sw, fl.actions); !ok {
				continue
			}
			if _, have := c.actions.get(sw, ports); !have {
				c.actions.put(sw, ports, fl.actions)
			}
		}
	}
}

// adoptActions returns the list to install for acts, a list read back from
// a snapshot into the caller's scratch: the interned list when acts is
// canonical, a copy of acts otherwise (a divergence resync repairs).
func (c *Controller) adoptActions(sw topo.NodeID, acts []openflow.Action) []openflow.Action {
	var buf [16]openflow.PortID
	if ports, ok := c.canonicalPorts(buf[:0], sw, acts); ok {
		return c.actionsFor(sw, ports)
	}
	return append([]openflow.Action(nil), acts...)
}
