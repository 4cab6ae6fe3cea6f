package netem

import (
	"encoding/binary"
	"net/netip"

	"pleroma/internal/openflow"
	"pleroma/internal/topo"
)

// HostAddr derives the unicast address of a host node (fd00::<id+1>); the
// controller uses it for the terminal set-destination rewrite.
func HostAddr(h topo.NodeID) netip.Addr {
	var b [16]byte
	b[0] = 0xfd
	binary.BigEndian.PutUint64(b[8:], uint64(h)+1)
	return netip.AddrFrom16(b)
}

// ApplyBatch applies a whole batch of FlowMods to one switch in a single
// southbound call, modelling an OpenFlow bundle (core.FlowProgrammer
// surface). Operations apply in order and append their FlowIDs to ids; on
// failure the appended part tells the caller which prefix took effect. An
// add fails with openflow.ErrTableFull when the switch's TCAM budget is
// exhausted.
func (dp *DataPlane) ApplyBatch(sw topo.NodeID, ops []openflow.FlowOp, ids []openflow.FlowID) ([]openflow.FlowID, error) {
	t, err := dp.Table(sw)
	if err != nil {
		return ids, err
	}
	dp.southbound++
	return t.AppendBatch(ids, ops)
}

// SouthboundCalls returns the number of controller→switch programming
// calls made so far; a batch counts once however many FlowMods it carries.
func (dp *DataPlane) SouthboundCalls() uint64 { return dp.southbound }

// Flows lists the flows installed on a switch.
func (dp *DataPlane) Flows(sw topo.NodeID) ([]openflow.Flow, error) {
	t, err := dp.Table(sw)
	if err != nil {
		return nil, err
	}
	return t.Flows(), nil
}

// FlowModCount sums FlowMod operations over all switches.
func (dp *DataPlane) FlowModCount() uint64 {
	var total uint64
	for _, t := range dp.tables {
		total += t.Stats().Total()
	}
	return total
}
