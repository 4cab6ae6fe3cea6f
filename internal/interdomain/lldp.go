package interdomain

import (
	"fmt"
	"net/netip"
	"sort"

	"pleroma/internal/netem"
	"pleroma/internal/openflow"
	"pleroma/internal/topo"
)

// lldpProbe is the payload of a discovery frame: the sending controller's
// partition and the switch-port it was emitted from (the information a
// real LLDP TLV carries).
type lldpProbe struct {
	originPart   int
	originSwitch topo.NodeID
	originPort   openflow.PortID
}

// lldpAddr is the link-scope destination of discovery frames. No flow ever
// matches it, so receiving switches punt the frame to their controller —
// exactly the mechanism Section 4.1 describes.
var lldpAddr = netip.MustParseAddr("ff02::e")

// discoverBordersLLDP performs neighbour discovery by actually exchanging
// LLDP frames over the emulated data plane: every controller packet-outs a
// probe on every port of every switch it manages; frames that arrive at a
// switch of a *different* partition are punted to that partition's
// controller, which records the (switch, in-port, origin-partition) tuple.
// Frames arriving within the same partition are the regular topology
// discovery and are ignored here.
func (f *Fabric) discoverBordersLLDP() error {
	type hit struct {
		localSwitch topo.NodeID
		localPort   openflow.PortID
		probe       lldpProbe
	}
	var hits []hit

	// Take over the punt path for the discovery round; restore the in-band
	// signalling handler (if enabled) afterwards.
	defer func() {
		if f.inBandEnabled {
			f.dp.SetPuntHandler(f.handlePunt)
		} else {
			f.dp.SetPuntHandler(nil)
		}
	}()
	f.dp.SetPuntHandler(func(sw topo.NodeID, inPort openflow.PortID, pkt netem.Packet) {
		probe, ok := pkt.Control.(lldpProbe)
		if !ok || pkt.Dst != lldpAddr {
			return
		}
		if f.g.Partition(sw) == probe.originPart {
			return // intra-partition discovery, handled by the local controller
		}
		hits = append(hits, hit{localSwitch: sw, localPort: inPort, probe: probe})
	})

	// Every controller floods probes out of all switch ports it manages.
	for _, p := range f.order {
		for _, sw := range f.g.SwitchesInPartition(p) {
			for _, nb := range f.g.Neighbors(sw) {
				pkt := netem.Packet{
					Dst:     lldpAddr,
					Control: lldpProbe{originPart: p, originSwitch: sw, originPort: nb.Port},
				}
				if err := f.dp.SendFromSwitchPort(sw, nb.Port, pkt); err != nil {
					return fmt.Errorf("interdomain: lldp probe from %d port %d: %w", sw, nb.Port, err)
				}
			}
		}
	}
	f.dp.Run() // drain the probe exchange (barrier drain when sharded)

	// Convert punted probes into border ports. Sort by a link-symmetric
	// key so both endpoint partitions agree on the canonical crossing.
	sort.Slice(hits, func(i, j int) bool {
		return borderKey(hits[i].localSwitch, hits[i].probe.originSwitch) <
			borderKey(hits[j].localSwitch, hits[j].probe.originSwitch)
	})
	for _, h := range hits {
		s, ok := f.parts[f.g.Partition(h.localSwitch)]
		if !ok {
			continue
		}
		s.borders[h.probe.originPart] = append(s.borders[h.probe.originPart], BorderPort{
			LocalSwitch:  h.localSwitch,
			LocalPort:    h.localPort,
			RemotePart:   h.probe.originPart,
			RemoteSwitch: h.probe.originSwitch,
			RemotePort:   h.probe.originPort,
		})
	}
	return nil
}

// borderKey orders border links symmetrically: both sides of one physical
// link derive the same key, so their sorted border lists pair up and
// canonicalBorder picks the same crossing on both sides.
func borderKey(a, b topo.NodeID) uint64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return uint64(lo)<<32 | uint64(uint32(hi))
}
